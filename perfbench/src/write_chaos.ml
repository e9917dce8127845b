(* write-chaos: HovercRaft++ starting at N=5 on 10 GbE under YCSB-A at a
   fixed open-loop rate, flow cap 1000, client retries, a snapshot every
   5000 entries and a seeded kill/restart/add/remove/transfer schedule.
   The assembled run is [Chaos.run] taken apart into its public pieces
   so each phase can be timed; [Library] runs call [Chaos.run] itself,
   and both must give the same outcome. The knee is that of the same
   cell without faults. *)

open Hovercraft_sim
open Hovercraft_core
open Common
module Experiment = Hovercraft_cluster.Experiment
module Chaos = Hovercraft_cluster.Chaos
module Failure = Hovercraft_cluster.Failure
module Ycsb = Hovercraft_apps.Ycsb

type sizing = {
  rate_rps : float;
  duration : Timebase.t;
  snapshots : int;
  lo : float;
  hi : float;
}

let sizing = function
  | Full ->
      { rate_rps = 100_000.; duration = Timebase.ms 1_500; snapshots = 5_000; lo = knee_lo; hi = 2e6 }
  | Tiny ->
      { rate_rps = 20_000.; duration = Timebase.ms 200; snapshots = 500; lo = 5_000.; hi = 9_000. }

let n = 5
let flow_cap = 1_000
let bucket = Timebase.ms 100
let drain = Timebase.ms 100

let params ~seed =
  let p = Hnode.params ~mode:Hnode.Hover_pp ~n () in
  { p with seed; cost = { p.cost with link_gbps = 10. } }

(* [Chaos.run]'s widening for [snapshots = Some interval]. *)
let widened z ~seed =
  let p = params ~seed in
  {
    p with
    Hnode.timing = { p.Hnode.timing with Hnode.gc_ordered = (2 * z.duration) + drain + Timebase.s 1 };
    features =
      {
        p.Hnode.features with
        Hnode.log_retain = z.snapshots;
        snapshot_interval = z.snapshots;
        flow_control = true;
      };
  }

let workload ~seed =
  let g = Ycsb.Kv.workload_a ~seed:(seed + 1) in
  fun _rng -> Ycsb.Kv.next g

(* The fault schedule is one fixed draw of [Chaos.random_schedule]; the
   benchmark seed varies the request stream and the nodes' timers.
   Seeding the schedule too would make the tail and availability
   figures measure which faults a seed happened to draw. *)
let schedule_seed = 4

let schedule z = Chaos.random_schedule ~reconfig:true ~n ~duration:z.duration ~seed:schedule_seed ()

let knee size ~seed =
  let z = sizing size in
  Experiment.max_under_slo ~lo:z.lo ~hi:z.hi
    (Experiment.setup ~flow_cap ~seed (widened z ~seed) (workload ~seed))

let setup z ~seed =
  Probe.span "cluster.setup" (fun () -> Deploy.create (Deploy.config ~flow_cap (widened z ~seed)))

let time_setup size ~seed =
  let z = sizing size in
  let t = Probe.now () in
  ignore (setup z ~seed);
  Probe.now () -. t

let gate (o : Chaos.outcome) =
  o.violations
  @ List.filter_map
      (fun (ok, what) -> if ok then None else Some what)
      [
        (o.exactly_once_ok, "exactly-once execution violated");
        (o.committed_preserved, "an acknowledged write was un-committed");
        (o.caught_up, "a live replica did not catch up");
        (o.consistent, "replica fingerprints diverge");
        (o.pending_recoveries = 0, "body recoveries still pending");
      ]

let library z ~seed =
  Chaos.run ~params:(params ~seed) ~n ~rate_rps:z.rate_rps ~flow_cap ~bucket ~duration:z.duration
    ~drain ~reconfig:true ~snapshots:z.snapshots ~schedule:(schedule z) ~workload:(workload ~seed)
    ~seed ()

(* Every write a client saw answered must hold an exactly-once
   completion record on the reference replica (the live node with the
   longest committed prefix). [Chaos.check]'s committed-stays-committed
   scan reads the reference's log, which is vacuous once that log has
   compacted, as it always has here; completion records ride snapshots,
   and the run's widened body-retention window keeps them for the whole
   run. Returns the violations. *)
let acked_writes_recorded deploy writes =
  let reference =
    List.fold_left
      (fun best n ->
        match best with
        | Some b when Hnode.commit_index b >= Hnode.commit_index n -> best
        | _ -> Some n)
      None (Deploy.live_nodes deploy)
  in
  let recorded = Hashtbl.create 4096 in
  Option.iter
    (fun r -> List.iter (fun (rid, _, _) -> Hashtbl.replace recorded rid ()) (Hnode.completion_records r))
    reference;
  match List.filter (fun rid -> not (Hashtbl.mem recorded rid)) writes with
  | [] -> []
  | missing ->
      [ Printf.sprintf "%d client-completed writes have no completion record on the reference replica"
          (List.length missing) ]

(* [Chaos.run], step for step, with spans around each layer call and the
   benchmark's own completion timeline. [corrupt] rewrites the
   client-observed write history before the checkers see it (self-test
   only). Returns the outcome [Chaos.run] would, the benchmark's extra
   violations, the simulated metrics and the fingerprints. *)
let assembled ?(corrupt = Fun.id) z ~seed ~traced =
  let schedule = schedule z in
  let deploy = setup z ~seed in
  let engine = deploy.Deploy.engine in
  let terms0 = start_terms [ deploy ] in
  let t0 = Engine.now engine in
  let completions = Series.create ~bucket () in
  let nacks = Series.create ~bucket () in
  let completed_writes = ref [] in
  let tl = timeline ~from:t0 ~until:(t0 + z.duration) in
  let workload, ops = Replay.instrument ~traced (workload ~seed) in
  let gen =
    Loadgen.create deploy ~clients:8 ~rate_rps:z.rate_rps ~workload
      ~retry:(Timebase.ms 50, 8)
      ~on_reply:(fun ~rid ~op ~sent_at:_ ~latency ->
        if not (Hovercraft_apps.Op.read_only op) then completed_writes := rid :: !completed_writes;
        let now = Engine.now engine in
        record tl ~at:now latency;
        Series.add completions ~at:(now - t0) latency)
      ~on_nack:(fun ~at -> Series.mark nacks ~at:(at - t0))
      ~seed ()
  in
  let timeline_notes = ref [] in
  let apply event =
    Probe.span "cluster.fault" (fun () ->
        Chaos.apply_event deploy ~t0 ~timeline:timeline_notes event)
  in
  List.iter (fun { Chaos.at; event } -> Engine.after engine at (fun () -> apply event)) schedule;
  let report = Probe.span "sim.load" (fun () -> Loadgen.run gen ~warmup:0 ~duration:z.duration ~drain ()) in
  if Fabric.partitioned deploy.Deploy.fabric then apply Chaos.Heal;
  Array.iteri
    (fun i node ->
      if (not (Hnode.alive node)) && not (Deploy.is_removed deploy i) then apply (Chaos.Restart i))
    deploy.Deploy.nodes;
  let converged () =
    let live = Deploy.live_nodes deploy in
    let max_commit = List.fold_left (fun acc n -> max acc (Hnode.commit_index n)) 0 live in
    List.for_all (fun n -> Hnode.applied_index n >= max_commit) live
    && Deploy.total_pending_recoveries deploy = 0
  in
  let rec settle tries =
    Probe.span "sim.drain" (fun () -> Deploy.quiesce deploy ~extra:(Timebase.ms 200) ());
    if (not (converged ())) && tries > 0 then settle (tries - 1)
  in
  settle 50;
  let (violations, exactly_once_ok, committed_preserved, caught_up, consistent), extra =
    Probe.span "cluster.check" (fun () ->
        let writes = corrupt !completed_writes in
        (Chaos.check ~snapshots:true deploy ~completed_writes:writes, acked_writes_recorded deploy writes))
  in
  let live = Deploy.live_nodes deploy in
  let outcome =
    {
      Chaos.series =
        Failure.merge_series ~bucket_width:bucket ~completions:(Series.buckets completions)
          ~nacks:(Series.buckets nacks);
      events = List.rev !timeline_notes;
      violations;
      exactly_once_ok;
      committed_preserved;
      caught_up;
      consistent;
      report;
      retried = Loadgen.retried gen;
      pending_recoveries = Deploy.total_pending_recoveries deploy;
      final_members =
        (match Deploy.leader deploy with
        | Some l -> Hnode.members l
        | None -> ( match live with m :: _ -> Hnode.members m | [] -> []));
      max_log_base = List.fold_left (fun acc nd -> max acc (Hnode.log_base nd)) 0 live;
      installs = List.fold_left (fun acc nd -> acc + Hnode.installs_received nd) 0 live;
    }
  in
  let sim =
      e2e_sim ~report ~stats:(Loadgen.stats gen) ~tl ~rate_rps:z.rate_rps
    @ layer_counters [ deploy ] ~terms0 ~sent:report.sent ~span:z.duration
    @ [ ("cluster.retried", float_of_int outcome.retried) ]
  in
  export [ deploy ];
  if traced then Replay.kv_exec ~preload:[] (ops ());
  (outcome, extra, sim, fingerprints [ deploy ])

(* One repetition; the load-driving call is the whole [Chaos.run] or
   its assembled equivalent. *)
let run_with ?corrupt size ~seed mode =
  let z = sizing size in
  let gc0 = Probe.gc_now () in
  let t0 = Probe.now () in
  let outcome, extra, sim, fps =
    match mode with
    | Library -> (library z ~seed, [], [], "-")
    | Assembled | Traced -> assembled ?corrupt z ~seed ~traced:(mode = Traced)
  in
  let drive_s = Probe.now () -. t0 in
  let r = outcome.report in
  {
    mode;
    outcome = digest outcome;
    pin =
      Printf.sprintf "%s retried=%d installs=%d max_log_base=%d members=[%s]" (report_line r)
        outcome.retried outcome.installs outcome.max_log_base
        (String.concat ";" (List.map string_of_int outcome.final_members));
    fingerprints = fps;
    sim;
    violations = gate outcome @ extra;
    sent = r.sent;
    failed = r.lost;
    wall_s = drive_s;
    drive_s;
    gc_drive = Probe.gc_since gc0;
  }

let run size ~seed mode = run_with size ~seed mode
