(* Tests for crash-recovery (Hnode.restart) and the chaos subsystem. *)

open Hovercraft_sim
open Hovercraft_core
open Hovercraft_cluster
module Service = Hovercraft_apps.Service

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let workload = Service.sample (Service.spec ~read_fraction:0.5 ())

(* A killed follower restarted mid-run catches all the way up to the
   cluster's commit point and converges to the same application state. *)
let test_restart_catches_up () =
  let params =
    let p = Hnode.params ~mode:Hnode.Hover_pp ~n:3 () in
    {
      p with
      Hnode.timing = { p.Hnode.timing with Hnode.gc_ordered = Timebase.s 2 };
      features = { p.Hnode.features with Hnode.log_retain = max_int / 2 };
    }
  in
  let deploy = Deploy.create (Deploy.config params) in
  let engine = deploy.Deploy.engine in
  let gen =
    Loadgen.create deploy ~clients:4 ~rate_rps:40_000. ~workload ~seed:11 ()
  in
  Engine.after engine (Timebase.ms 50) (fun () -> Deploy.kill_node deploy 2);
  Engine.after engine (Timebase.ms 150) (fun () -> Deploy.restart_node deploy 2);
  let _ = Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 300) () in
  Deploy.quiesce deploy ~extra:(Timebase.ms 200) ();
  let n2 = deploy.Deploy.nodes.(2) in
  check "restarted node alive" true (Hnode.alive n2);
  let max_commit =
    List.fold_left
      (fun acc n -> max acc (Hnode.commit_index n))
      0 (Deploy.live_nodes deploy)
  in
  check "caught up to cluster commit" true (Hnode.applied_index n2 >= max_commit);
  check "replicas consistent" true (Deploy.consistent deploy);
  check_int "no stuck recoveries" 0 (Deploy.total_pending_recoveries deploy)

let test_restart_requires_dead () =
  let deploy = Deploy.create (Deploy.config (Hnode.params ~mode:Hnode.Hover ~n:3 ())) in
  check "restarting a live node rejected" true
    (try
       Deploy.restart_node deploy 1;
       false
     with Invalid_argument _ -> true)

(* The PR's acceptance scenario: N=5 HovercRaft++, kill the leader, restart
   it, then kill the new leader — the cluster must end consistent with the
   restarted node fully caught up and zero checker violations. *)
let test_kill_restart_kill_new_leader () =
  let outcome =
    Chaos.run ~n:5 ~rate_rps:40_000. ~flow_cap:500 ~bucket:(Timebase.ms 100)
      ~duration:(Timebase.ms 700)
      ~schedule:
        [
          (* Node 0 bootstraps as leader, so the first kill is by id. *)
          { Chaos.at = Timebase.ms 100; event = Chaos.Kill 0 };
          { Chaos.at = Timebase.ms 300; event = Chaos.Restart 0 };
          { Chaos.at = Timebase.ms 450; event = Chaos.Kill_leader };
        ]
      ~workload ~seed:21 ()
  in
  check_int "three scheduled events applied (plus epilogue)" 4
    (List.length outcome.Chaos.events);
  Alcotest.(check (list string)) "no checker violations" []
    outcome.Chaos.violations;
  check "consistent" true outcome.Chaos.consistent;
  check "caught up" true outcome.Chaos.caught_up;
  check "exactly once" true outcome.Chaos.exactly_once_ok;
  check "committed preserved" true outcome.Chaos.committed_preserved;
  check "progress was made" true (outcome.Chaos.report.Loadgen.completed > 0)

(* A minority partition severs the leader from nothing it needs; healing
   must lose no committed reply and leave everyone converged. *)
let test_partition_then_heal () =
  let outcome =
    Chaos.run ~n:5 ~rate_rps:40_000. ~bucket:(Timebase.ms 100)
      ~duration:(Timebase.ms 600)
      ~schedule:
        [
          {
            Chaos.at = Timebase.ms 150;
            event = Chaos.Partition [ [ 0; 1; 2 ]; [ 3; 4 ] ];
          };
          { Chaos.at = Timebase.ms 350; event = Chaos.Heal };
        ]
      ~workload ~seed:31 ()
  in
  Alcotest.(check (list string)) "no checker violations" []
    outcome.Chaos.violations;
  check "committed replies survived the partition" true
    outcome.Chaos.committed_preserved;
  check "consistent after heal" true outcome.Chaos.consistent;
  check "caught up after heal" true outcome.Chaos.caught_up

(* Equal seeds must replay the same schedule against the same load. *)
let test_chaos_deterministic () =
  let run () =
    let o =
      Chaos.run ~n:5 ~rate_rps:30_000. ~duration:(Timebase.ms 500) ~workload
        ~seed:42 ()
    in
    (o.Chaos.events, o.Chaos.series, o.Chaos.report.Loadgen.completed)
  in
  check "same seed, identical outcome" true (run () = run ())

let test_random_schedule_keeps_quorum () =
  (* On the generator's own model: never more than a minority dead, and
     everything it killed by id is restarted by the end. *)
  List.iter
    (fun seed ->
      let steps =
        Chaos.random_schedule ~events:8 ~n:5 ~duration:(Timebase.s 2) ~seed ()
      in
      let dead = Hashtbl.create 8 in
      let anon = ref 0 in
      List.iter
        (fun { Chaos.event; _ } ->
          (match event with
          | Chaos.Kill i -> Hashtbl.replace dead i ()
          | Chaos.Kill_leader -> incr anon
          | Chaos.Restart i -> Hashtbl.remove dead i
          | Chaos.Partition _ | Chaos.Heal | Chaos.Add_node
          | Chaos.Remove_node _ | Chaos.Transfer _ | Chaos.Shard _ ->
              ());
          check "minority dead" true (Hashtbl.length dead + !anon <= 2))
        steps;
      check_int "id-kills all restarted" 0 (Hashtbl.length dead))
    [ 1; 2; 3; 4; 5 ]

(* Committed-stays-committed on a compacted log: the reference replica's
   completion records stand in for the compacted prefix while the clock
   is inside the retention window, so a client-acknowledged write that no
   replica holds is caught; on the default (short) window, where records
   have legitimately expired, the real history raises no false flag. *)
let test_check_falls_back_to_completion_records () =
  let run ~gc_ordered =
    let params =
      let p = Hnode.params ~mode:Hnode.Hover_pp ~n:3 () in
      {
        p with
        Hnode.seed = 9;
        timing = { p.Hnode.timing with Hnode.gc_ordered };
        features =
          { p.Hnode.features with Hnode.snapshot_interval = 200; log_retain = 200 };
      }
    in
    let deploy = Deploy.create (Deploy.config params) in
    let writes = ref [] in
    let gen =
      Loadgen.create deploy ~clients:4 ~rate_rps:40_000. ~workload
        ~on_reply:(fun ~rid ~op ~sent_at:_ ~latency:_ ->
          if not (Hovercraft_apps.Op.read_only op) then writes := rid :: !writes)
        ~seed:9 ()
    in
    ignore (Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 200) ());
    Deploy.quiesce deploy ();
    check "log compacted" true
      (List.for_all (fun n -> Hnode.log_base n > 0) (Deploy.live_nodes deploy));
    let verdict completed_writes =
      let violations, _, preserved, _, _ =
        Chaos.check ~snapshots:true deploy ~completed_writes
      in
      (violations, preserved)
    in
    let forged =
      match !writes with
      | w :: _ -> { w with Hovercraft_r2p2.R2p2.id = w.id + 1_000_000_000 }
      | [] -> Alcotest.fail "no write completed"
    in
    (verdict !writes, verdict (forged :: !writes))
  in
  let (v, ok), (_, forged_ok) = run ~gc_ordered:(Timebase.s 2) in
  Alcotest.(check (list string)) "wide window: real history passes" [] v;
  check "wide window: real history preserved" true ok;
  check "wide window: forged write caught below the log base" false forged_ok;
  let (v, ok), _ = run ~gc_ordered:(Hnode.params ()).Hnode.timing.Hnode.gc_ordered in
  Alcotest.(check (list string)) "default window: no false flags" [] v;
  check "default window: real history preserved" true ok

(* On a complete (uncompacted) reference log, completion records never
   excuse a missing write: a record outlives a lost log entry. A Merge
   seeds the reference with a record whose rid no log entry carries; a
   client-acknowledged write with that rid must still be flagged. *)
let test_check_full_log_ignores_completion_records () =
  let params =
    let p = Hnode.params ~mode:Hnode.Hover_pp ~n:3 () in
    {
      p with
      Hnode.seed = 9;
      timing = { p.Hnode.timing with Hnode.gc_ordered = Timebase.s 2 };
      features = { p.Hnode.features with Hnode.log_retain = max_int / 2 };
    }
  in
  let deploy = Deploy.create (Deploy.config params) in
  let module Op = Hovercraft_apps.Op in
  let forged =
    {
      Hovercraft_r2p2.R2p2.id = 1_000_000_000;
      src_addr = Deploy.client_target deploy;
      src_port = 0;
    }
  in
  let merged = ref false in
  let seeding_workload rng =
    if !merged then workload rng
    else begin
      merged := true;
      Op.Merge
        {
          chunk = Hovercraft_apps.Kvstore.(snapshot (create ()));
          completions = [ { Op.c_rid = forged; c_result = Op.Done; c_at = 0 } ];
        }
    end
  in
  let writes = ref [] in
  let gen =
    Loadgen.create deploy ~clients:4 ~rate_rps:40_000. ~workload:seeding_workload
      ~on_reply:(fun ~rid ~op ~sent_at:_ ~latency:_ ->
        if not (Op.read_only op) then writes := rid :: !writes)
      ~seed:9 ()
  in
  ignore (Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 50) ());
  Deploy.quiesce deploy ();
  let live = Deploy.live_nodes deploy in
  check "log complete" true (List.for_all (fun n -> Hnode.log_base n = 0) live);
  check "forged rid recorded on every replica" true
    (List.for_all
       (fun n ->
         List.exists
           (fun (rid, _, _) -> Hovercraft_r2p2.R2p2.req_id_equal rid forged)
           (Hnode.completion_records n))
       live);
  let violations, _, preserved, _, _ =
    Chaos.check deploy ~completed_writes:!writes
  in
  Alcotest.(check (list string)) "real history passes" [] violations;
  check "real history preserved" true preserved;
  let violations, _, preserved, _, _ =
    Chaos.check deploy ~completed_writes:(forged :: !writes)
  in
  check "record-only write flagged" false preserved;
  check_int "exactly one violation" 1 (List.length violations)

let suite =
  [
    Alcotest.test_case "restart catches up" `Slow test_restart_catches_up;
    Alcotest.test_case "restart requires dead node" `Quick
      test_restart_requires_dead;
    Alcotest.test_case "kill, restart, kill new leader" `Slow
      test_kill_restart_kill_new_leader;
    Alcotest.test_case "partition then heal" `Slow test_partition_then_heal;
    Alcotest.test_case "chaos determinism" `Slow test_chaos_deterministic;
    Alcotest.test_case "check falls back to completion records" `Quick
      test_check_falls_back_to_completion_records;
    Alcotest.test_case "check ignores completion records on a full log" `Quick
      test_check_full_log_ignores_completion_records;
    Alcotest.test_case "random schedule keeps quorum" `Quick
      test_random_schedule_keeps_quorum;
  ]
