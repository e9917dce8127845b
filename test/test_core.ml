(* Tests for the HovercRaft core: unordered set, replier selection, flow
   control, the in-network aggregator, protocol sizing, and end-to-end
   integration of full clusters. *)

open Hovercraft_sim
open Hovercraft_r2p2
open Hovercraft_core
open Hovercraft_cluster
module Addr = Hovercraft_net.Addr
module Fabric = Hovercraft_net.Fabric
module Op = Hovercraft_apps.Op
module K = Hovercraft_apps.Kvstore
module Service = Hovercraft_apps.Service
module Rtypes = Hovercraft_raft.Types

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rid ?(id = 0) ?(node = 0) () =
  { R2p2.id; src_addr = Addr.Client node; src_port = 1000 }

(* --- unordered -------------------------------------------------------- *)

let make_store ?(gc_unordered = 100) ?(gc_ordered = 200) clock =
  Unordered.create ~now:(fun () -> !clock) ~gc_unordered ~gc_ordered ()

let test_unordered_add_find () =
  let clock = ref 0 in
  let s = make_store clock in
  Unordered.add s (rid ()) Op.Nop;
  check "found" true (Unordered.find s (rid ()) <> None);
  check "missing" true (Unordered.find s (rid ~id:9 ()) = None);
  check_int "size" 1 (Unordered.size s);
  check_int "unordered count" 1 (Unordered.unordered_count s)

let test_unordered_mark_and_remove () =
  let clock = ref 0 in
  let s = make_store clock in
  check "mark missing fails" false (Unordered.mark_ordered s (rid ()));
  Unordered.add s (rid ()) Op.Nop;
  check "mark present" true (Unordered.mark_ordered s (rid ()));
  check_int "no longer unordered" 0 (Unordered.unordered_count s);
  check "still findable (recovery material)" true (Unordered.find s (rid ()) <> None);
  Unordered.remove s (rid ());
  check "removed" true (Unordered.find s (rid ()) = None)

let test_unordered_gc_windows () =
  let clock = ref 0 in
  let s = make_store ~gc_unordered:100 ~gc_ordered:300 clock in
  Unordered.add s (rid ~id:1 ()) Op.Nop;
  Unordered.add s (rid ~id:2 ()) Op.Nop;
  ignore (Unordered.mark_ordered s (rid ~id:2 ()));
  clock := 150;
  check_int "unordered collected" 1 (Unordered.gc s);
  check "ordered survives short window" true (Unordered.find s (rid ~id:2 ()) <> None);
  clock := 600;
  check_int "ordered collected eventually" 1 (Unordered.gc s)

let test_unordered_ingest_order () =
  let clock = ref 0 in
  let s = make_store clock in
  Unordered.add s (rid ~id:3 ()) Op.Nop;
  Unordered.add s (rid ~id:1 ()) Op.Nop;
  Unordered.add s (rid ~id:2 ()) Op.Nop;
  ignore (Unordered.mark_ordered s (rid ~id:1 ()));
  let ids = List.map (fun (r, _) -> r.R2p2.id) (Unordered.unordered_bindings s) in
  Alcotest.(check (list int)) "arrival order, ordered excluded" [ 3; 2 ] ids

let test_unordered_readd_keeps_ordered () =
  let clock = ref 0 in
  let s = make_store clock in
  Unordered.add s (rid ()) Op.Nop;
  ignore (Unordered.mark_ordered s (rid ()));
  Unordered.add s (rid ()) Op.Nop;
  check_int "duplicate multicast keeps ordered state" 0 (Unordered.unordered_count s)

(* Model-based check of the stamp-ordered expiry: seeded random
   add / re-add / mark_ordered / remove / clock / gc ?keep sequences
   against a full-sweep oracle that keeps the old whole-table scan. *)
module Sweep_oracle = struct
  type slot = { op : Op.t; mutable added : int; mutable ordered : bool; seq : int }
  type t = { tbl : (int, slot) Hashtbl.t; mutable seq : int; gu : int; go : int }

  let add o now id op =
    match Hashtbl.find_opt o.tbl id with
    | Some s -> s.added <- now
    | None ->
        o.seq <- o.seq + 1;
        Hashtbl.replace o.tbl id { op; added = now; ordered = false; seq = o.seq }

  let mark o now id =
    match Hashtbl.find_opt o.tbl id with
    | None -> false
    | Some s -> s.ordered <- true; s.added <- now; true

  let gc o now keep =
    let expired id s =
      now - s.added > (if s.ordered then o.go else o.gu) && (s.ordered || not (keep id))
    in
    let dead = Hashtbl.fold (fun id s acc -> if expired id s then id :: acc else acc) o.tbl [] in
    List.iter (Hashtbl.remove o.tbl) dead;
    List.length dead

  let unordered o =
    Hashtbl.fold (fun id s acc -> if s.ordered then acc else (s.seq, id) :: acc) o.tbl []
    |> List.sort compare |> List.map snd
end

let test_unordered_matches_sweep_oracle () =
  let gu = 100 and go = 250 in
  for seed = 1 to 40 do
    let st = Random.State.make [| seed |] in
    let clock = ref 0 in
    let s = make_store ~gc_unordered:gu ~gc_ordered:go clock in
    let o = { Sweep_oracle.tbl = Hashtbl.create 64; seq = 0; gu; go } in
    let pinned = Hashtbl.create 8 in
    let keep_id id = Hashtbl.mem pinned id in
    for step = 1 to 600 do
      let expect what ok =
        if not ok then Alcotest.failf "seed %d step %d: %s differs" seed step what
      in
      let id = Random.State.int st 24 in
      let r = rid ~id () in
      (match Random.State.int st 100 with
      | n when n < 30 ->
          let op = Op.Kv (K.Get (string_of_int step)) in
          Unordered.add s r op;
          Sweep_oracle.add o !clock id op
      | n when n < 50 ->
          expect "mark_ordered" (Sweep_oracle.mark o !clock id = Unordered.mark_ordered s r)
      | n when n < 58 ->
          Unordered.remove s r;
          Hashtbl.remove o.tbl id
      | n when n < 63 -> Hashtbl.replace pinned id ()
      | n when n < 68 -> Hashtbl.remove pinned id
      | n when n < 85 ->
          (* Several operations often share one timestamp. *)
          if Random.State.bool st then clock := !clock + Random.State.int st 80
      | _ ->
          let with_keep = Random.State.int st 3 > 0 in
          let keep = if with_keep then keep_id else fun _ -> false in
          let got =
            if with_keep then Unordered.gc ~keep:(fun r -> keep_id r.R2p2.id) s
            else Unordered.gc s
          in
          expect "gc count" (Sweep_oracle.gc o !clock keep = got));
      expect "size" (Hashtbl.length o.tbl = Unordered.size s);
      let unordered = Sweep_oracle.unordered o in
      expect "unordered_count" (List.length unordered = Unordered.unordered_count s);
      expect "unordered_bindings"
        (unordered = List.map (fun (r, _) -> r.R2p2.id) (Unordered.unordered_bindings s));
      for id = 0 to 23 do
        let r = rid ~id () in
        let want = Hashtbl.find_opt o.tbl id in
        expect "find" (Option.map (fun (x : Sweep_oracle.slot) -> x.op) want = Unordered.find s r);
        expect "status"
          (Unordered.status s r
          = match want with
            | None -> `Absent
            | Some x -> if x.ordered then `Ordered else `Unordered)
      done
    done
  done

(* --- replier ----------------------------------------------------------- *)

let test_replier_bound_and_applied () =
  let r = Replier.create Jbsq.Jbsq ~bound:2 ~nodes:[ 0; 1 ] ~rng:(Rng.create 1) in
  Replier.assign r ~node:0 ~index:1;
  Replier.assign r ~node:0 ~index:2;
  check_int "depth" 2 (Replier.depth r 0);
  (* Node 0 full: picks must go to node 1. *)
  for _ = 1 to 10 do
    Alcotest.(check (option int)) "full node skipped" (Some 1) (Replier.pick r ())
  done;
  Replier.note_applied r ~node:0 ~applied:1;
  check_int "applied prunes queue" 1 (Replier.depth r 0)

let test_replier_dead_node_bounded () =
  (* A dead node's applied never advances: it receives at most [bound]
     assignments — the paper's at-most-B-lost-replies guarantee (§3.4). *)
  let bound = 4 in
  let r = Replier.create Jbsq.Jbsq ~bound ~nodes:[ 0; 1; 2 ] ~rng:(Rng.create 2) in
  let assigned_to_dead = ref 0 in
  let idx = ref 0 in
  for _ = 1 to 1000 do
    match Replier.pick r () with
    | Some node ->
        incr idx;
        Replier.assign r ~node ~index:!idx;
        if node = 0 then incr assigned_to_dead
        else Replier.note_applied r ~node ~applied:!idx
    | None -> ()
  done;
  check "dead node capped at bound" true (!assigned_to_dead <= bound)

let test_replier_reset () =
  let r = Replier.create Jbsq.Jbsq ~bound:2 ~nodes:[ 0; 1 ] ~rng:(Rng.create 3) in
  Replier.assign r ~node:0 ~index:5;
  Replier.set_excluded r 1 true;
  Replier.reset r;
  check_int "depths cleared" 0 (Replier.depth r 0);
  check "exclusions cleared, assign restarts" true (Replier.pick r () <> None);
  Replier.assign r ~node:0 ~index:1

let test_replier_assign_monotone () =
  let r = Replier.create Jbsq.Jbsq ~bound:8 ~nodes:[ 0 ] ~rng:(Rng.create 4) in
  Replier.assign r ~node:0 ~index:5;
  Alcotest.check_raises "indices must increase"
    (Invalid_argument "Replier.assign: indices must be increasing per node")
    (fun () -> Replier.assign r ~node:0 ~index:5)

(* --- protocol sizing ---------------------------------------------------- *)

let entry op =
  { Rtypes.term = 1; cmd = Protocol.client_cmd ~rid:(rid ()) op }

let test_protocol_ae_bytes () =
  let op = Op.Synth { cost = 0; read_only = false; req_bytes = 512; rep_bytes = 8 } in
  let entries = [| entry op; entry op |] in
  let with_b = Protocol.ae_bytes ~with_bodies:true entries in
  let without = Protocol.ae_bytes ~with_bodies:false entries in
  check_int "metadata-only AE is fixed cost"
    (R2p2.header_bytes + 32 + (2 * Protocol.meta_wire_bytes))
    without;
  check_int "vanilla AE pays the bodies" (without + 1024) with_b

let test_protocol_meta () =
  let op = Op.Kv (K.Get "x") in
  let cmd = Protocol.client_cmd ~rid:(rid ()) op in
  check "read-only derived" true cmd.Protocol.meta.read_only;
  check_int "replier unassigned" (-1) cmd.Protocol.meta.replier;
  check "not internal" false cmd.Protocol.meta.internal;
  check "noop internal" true Protocol.internal_noop.Protocol.meta.internal

let test_protocol_request_bytes () =
  let op = Op.Synth { cost = 0; read_only = false; req_bytes = 100; rep_bytes = 8 } in
  let p = Protocol.Request { rid = rid (); policy = R2p2.Replicated_req; op } in
  check_int "request = header + body" (R2p2.header_bytes + 100)
    (Protocol.payload_bytes ~with_bodies:false p)

(* --- flow control -------------------------------------------------------- *)

let test_flow_control_caps () =
  let e = Engine.create () in
  let fabric = Fabric.create e () in
  let fc = Flow_control.create e fabric ~cap:2 ~group:9 ~rate_gbps:100. in
  let got_nacks = ref 0 and got_fwd = ref 0 in
  let client =
    Fabric.attach fabric ~addr:(Addr.Client 0) ~rate_gbps:10. ~handler:(fun pkt ->
        match pkt.Fabric.payload with
        | Protocol.Nack _ -> incr got_nacks
        | _ -> ())
  in
  let _member =
    Fabric.attach fabric ~addr:(Addr.Node 0) ~rate_gbps:10. ~handler:(fun pkt ->
        match pkt.Fabric.payload with
        | Protocol.Request _ -> incr got_fwd
        | _ -> ())
  in
  Fabric.join fabric ~group:9 (Addr.Node 0);
  let send_req id =
    let op = Op.Nop in
    Fabric.send fabric client ~dst:Addr.Middlebox ~bytes:32
      (Protocol.Request { rid = rid ~id (); policy = R2p2.Replicated_req; op })
  in
  send_req 1;
  send_req 2;
  send_req 3;
  Engine.run e;
  check_int "two admitted" 2 !got_fwd;
  check_int "third NACKed" 1 !got_nacks;
  check_int "inflight" 2 (Flow_control.inflight fc);
  (* Feedback opens the window again. *)
  Fabric.send fabric client ~dst:Addr.Middlebox ~bytes:16
    (Protocol.Feedback { rid = rid ~id:1 () });
  Engine.run e;
  check_int "feedback decrements" 1 (Flow_control.inflight fc);
  send_req 4;
  Engine.run e;
  check_int "admitted after feedback" 3 !got_fwd

(* --- aggregator ------------------------------------------------------------ *)

let ae ~term ~leader ~prev ~len ~commit ~seq =
  Protocol.Raft
    (Rtypes.Append_entries
       {
         term;
         leader;
         prev_idx = prev;
         prev_term = (if prev = 0 then 0 else term);
         entries = Array.init len (fun _ -> entry Op.Nop);
         commit;
         seq;
       })

let ack ~term ~from ~match_idx ~applied ~seq =
  Protocol.Raft
    (Rtypes.Append_ack
       { term; from; success = true; seq; match_idx; applied_idx = applied })

type agg_env = {
  engine : Engine.t;
  agg : Aggregator.t;
  leader_got : Protocol.payload list ref;
  follower_got : Protocol.payload list ref array;
}

let make_agg_env n =
  let engine = Engine.create () in
  let fabric = Fabric.create engine () in
  let agg =
    Aggregator.create engine fabric
      ~members:(List.init n Fun.id)
      ~cluster_group:0 ~followers_group:1 ~rate_gbps:100.
  in
  let leader_got = ref [] in
  let follower_got = Array.init n (fun _ -> ref []) in
  let leader_port =
    Fabric.attach fabric ~addr:(Addr.Node 0) ~rate_gbps:10. ~handler:(fun pkt ->
        leader_got := pkt.Fabric.payload :: !leader_got)
  in
  for i = 1 to n - 1 do
    let sink = follower_got.(i) in
    ignore
      (Fabric.attach fabric ~addr:(Addr.Node i) ~rate_gbps:10.
         ~handler:(fun pkt -> sink := pkt.Fabric.payload :: !sink))
  done;
  for i = 0 to n - 1 do
    Fabric.join fabric ~group:0 (Addr.Node i)
  done;
  let env = { engine; agg; leader_got; follower_got } in
  let send payload =
    Fabric.send fabric leader_port ~dst:Addr.Netagg ~bytes:64 payload
  in
  (env, send)

let count_ae payloads =
  List.length
    (List.filter
       (function Protocol.Raft (Rtypes.Append_entries _) -> true | _ -> false)
       payloads)

let count_commits payloads =
  List.length
    (List.filter (function Protocol.Agg_commit _ -> true | _ -> false) payloads)

let test_aggregator_fanout_and_commit () =
  let env, send = make_agg_env 3 in
  send (ae ~term:1 ~leader:0 ~prev:0 ~len:1 ~commit:0 ~seq:1);
  Engine.run env.engine;
  check_int "fanned to follower1" 1 (count_ae !(env.follower_got.(1)));
  check_int "fanned to follower2" 1 (count_ae !(env.follower_got.(2)));
  check_int "leader gets no fanout" 0 (count_ae !(env.leader_got));
  (* One follower ack = quorum (leader + 1 of 2 followers). *)
  send (ack ~term:1 ~from:1 ~match_idx:1 ~applied:0 ~seq:1);
  Engine.run env.engine;
  check_int "commit announced" 1 (Aggregator.commit env.agg);
  check_int "AGG_COMMIT to leader" 1 (count_commits !(env.leader_got));
  check_int "AGG_COMMIT to followers" 1 (count_commits !(env.follower_got.(1)))

let test_aggregator_quorum_needs_majority () =
  let env, send = make_agg_env 5 in
  send (ae ~term:1 ~leader:0 ~prev:0 ~len:1 ~commit:0 ~seq:1);
  send (ack ~term:1 ~from:1 ~match_idx:1 ~applied:0 ~seq:1);
  Engine.run env.engine;
  check_int "1 of 4 followers is not quorum" 0 (Aggregator.commit env.agg);
  send (ack ~term:1 ~from:2 ~match_idx:1 ~applied:0 ~seq:1);
  Engine.run env.engine;
  check_int "2 of 4 + leader commits" 1 (Aggregator.commit env.agg)

let test_aggregator_term_flush () =
  let env, send = make_agg_env 3 in
  send (ae ~term:1 ~leader:0 ~prev:0 ~len:1 ~commit:0 ~seq:1);
  send (ack ~term:1 ~from:1 ~match_idx:1 ~applied:0 ~seq:1);
  Engine.run env.engine;
  check_int "committed in term 1" 1 (Aggregator.commit env.agg);
  (* A higher-term probe flushes all soft state. *)
  send (Protocol.Probe { term = 5; leader = 1 });
  Engine.run env.engine;
  check_int "flushed term" 5 (Aggregator.term env.agg);
  check_int "flushed commit" 0 (Aggregator.commit env.agg);
  check_int "flushed matches" 0 (Aggregator.match_of env.agg 1)

let test_aggregator_stale_term_ignored () =
  let env, send = make_agg_env 3 in
  send (ae ~term:3 ~leader:0 ~prev:0 ~len:1 ~commit:0 ~seq:1);
  Engine.run env.engine;
  let forwarded = Aggregator.forwarded env.agg in
  send (ae ~term:2 ~leader:1 ~prev:0 ~len:1 ~commit:0 ~seq:2);
  Engine.run env.engine;
  check_int "stale leader not forwarded" forwarded (Aggregator.forwarded env.agg)

let test_aggregator_pending_commit_repeat () =
  let env, send = make_agg_env 3 in
  send (ae ~term:1 ~leader:0 ~prev:0 ~len:1 ~commit:0 ~seq:1);
  send (ack ~term:1 ~from:1 ~match_idx:1 ~applied:0 ~seq:1);
  Engine.run env.engine;
  let commits = Aggregator.commits_sent env.agg in
  (* Heartbeat with no new entries: pending is set, and the next ack
     triggers an AGG_COMMIT even though the commit index is unchanged. *)
  send (ae ~term:1 ~leader:0 ~prev:1 ~len:0 ~commit:1 ~seq:2);
  send (ack ~term:1 ~from:2 ~match_idx:1 ~applied:1 ~seq:2);
  Engine.run env.engine;
  check_int "pending AGG_COMMIT sent" (commits + 1) (Aggregator.commits_sent env.agg)

let test_aggregator_down () =
  let env, send = make_agg_env 3 in
  Aggregator.set_down env.agg true;
  send (ae ~term:1 ~leader:0 ~prev:0 ~len:1 ~commit:0 ~seq:1);
  Engine.run env.engine;
  check_int "down device forwards nothing" 0 (count_ae !(env.follower_got.(1)))

(* --- integration: full clusters ------------------------------------------ *)

let drive ?(n = 3) ?(mode = Hnode.Hover_pp) ?(rate = 50_000.) ?(requests = 2_000)
    ?(tweak = fun p -> p) ?flow_cap ~seed () =
  let params = tweak (Hnode.params ~mode ~n ()) in
  let deploy = Deploy.create (Deploy.config ?flow_cap params) in
  let spec = Service.spec ~read_fraction:0.5 () in
  let gen =
    Loadgen.create deploy ~clients:4 ~rate_rps:rate
      ~workload:(Service.sample spec) ~seed ()
  in
  let duration = int_of_float (float_of_int requests /. rate *. 1e9) in
  let report = Loadgen.run gen ~warmup:0 ~duration () in
  Deploy.quiesce deploy ();
  (deploy, report)

let test_cluster_end_to_end_each_mode () =
  List.iter
    (fun mode ->
      let n = if mode = Hnode.Unreplicated then 1 else 3 in
      let deploy, report = drive ~n ~mode ~seed:21 () in
      check "served most requests" true
        (report.Loadgen.completed > (report.Loadgen.sent * 9 / 10));
      check_int "nothing lost" 0 report.Loadgen.lost;
      check "replicas consistent" true (Deploy.consistent deploy))
    [ Hnode.Unreplicated; Hnode.Vanilla; Hnode.Hover; Hnode.Hover_pp ]

let test_cluster_replies_load_balanced () =
  let deploy, _ = drive ~mode:Hnode.Hover_pp ~requests:3_000 ~seed:22 () in
  Array.iter
    (fun node ->
      (* With JBSQ over 3 nodes each should take roughly a third. *)
      check "every node replies" true (Hnode.replies_sent node > 500))
    deploy.Deploy.nodes

let test_cluster_vanilla_leader_replies_all () =
  let deploy, report = drive ~mode:Hnode.Vanilla ~seed:23 () in
  let leader = Option.get (Deploy.leader deploy) in
  check "leader answers everything" true
    (Hnode.replies_sent leader >= report.Loadgen.completed)

let test_cluster_recovery_under_loss () =
  (* Drop 2% of all received packets: multicast bodies go missing and the
     recovery protocol must fill the gaps without losing consistency. *)
  let deploy, report =
    drive ~mode:Hnode.Hover ~rate:20_000. ~requests:1_500
      ~tweak:(fun p ->
        { p with Hnode.features = { p.Hnode.features with Hnode.loss_prob = 0.02 } })
      ~seed:24 ()
  in
  check "most requests still served" true
    (report.Loadgen.completed > report.Loadgen.sent * 8 / 10);
  check "replicas consistent despite loss" true (Deploy.consistent deploy);
  let recoveries =
    Array.fold_left
      (fun acc node -> acc + Hnode.recoveries_sent node)
      0 deploy.Deploy.nodes
  in
  check "recovery path exercised" true (recoveries > 0)

let test_cluster_leader_failover () =
  let params =
    let p = Hnode.params ~mode:Hnode.Hover_pp ~n:3 () in
    { p with Hnode.features = { p.Hnode.features with Hnode.reply_lb = true } }
  in
  let deploy = Deploy.create (Deploy.config params) in
  let spec = Service.spec () in
  let gen =
    Loadgen.create deploy ~clients:4 ~rate_rps:30_000.
      ~workload:(Service.sample spec) ~seed:25 ()
  in
  let engine = deploy.Deploy.engine in
  Engine.after engine (Timebase.ms 20) (fun () -> ignore (Deploy.kill_leader deploy));
  let report = Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 60) () in
  Deploy.quiesce deploy ~extra:(Timebase.ms 50) ();
  (match Deploy.leader deploy with
  | Some l -> check "new leader differs" true (Hnode.id l <> 0)
  | None -> Alcotest.fail "no leader after failover");
  check "bounded losses" true (report.Loadgen.lost < 200);
  check "service continued" true
    (report.Loadgen.completed > report.Loadgen.sent / 2);
  check "survivors consistent" true (Deploy.consistent deploy)

let test_cluster_flow_control_prevents_collapse () =
  (* Offered load far beyond capacity: with the middlebox capping in-flight
     requests, goodput stays near capacity and clients see NACKs. *)
  let deploy, report =
    drive ~mode:Hnode.Hover_pp ~rate:2_000_000. ~requests:20_000
      ~tweak:(fun p ->
        { p with Hnode.features = { p.Hnode.features with Hnode.flow_control = true } })
      ~flow_cap:500 ~seed:26 ()
  in
  check "NACKs issued" true (report.Loadgen.nacked > 0);
  check "goodput survives overload" true (report.Loadgen.completed > 1_000);
  check "consistent under overload" true (Deploy.consistent deploy);
  ignore deploy

let test_cluster_hover_vs_vanilla_same_results () =
  (* The three replicated modes must produce identical application state
     for the same client workload (same seed => same op stream). *)
  let fingerprint mode =
    let deploy, _ = drive ~mode ~rate:20_000. ~requests:1_000 ~seed:27 () in
    Hnode.app_fingerprint deploy.Deploy.nodes.(0)
  in
  let v = fingerprint Hnode.Vanilla in
  check "hover matches vanilla" true (fingerprint Hnode.Hover = v);
  check "hover++ matches vanilla" true (fingerprint Hnode.Hover_pp = v)

let test_cluster_kv_workload_applies () =
  let params = Hnode.params ~mode:Hnode.Hover_pp ~n:3 () in
  let deploy = Deploy.create (Deploy.config params) in
  let counter = ref 0 in
  let workload _rng =
    incr counter;
    if !counter mod 3 = 0 then Op.Kv (K.Get (Printf.sprintf "k%d" (!counter mod 7)))
    else Op.Kv (K.Put (Printf.sprintf "k%d" (!counter mod 7), string_of_int !counter))
  in
  let gen = Loadgen.create deploy ~clients:2 ~rate_rps:20_000. ~workload ~seed:28 () in
  let report = Loadgen.run gen ~warmup:0 ~duration:(Timebase.ms 50) () in
  Deploy.quiesce deploy ();
  check "kv requests served" true (report.Loadgen.completed > 800);
  check "kv replicas consistent" true (Deploy.consistent deploy);
  check "state machine non-trivial" true
    (Hnode.executed_ops deploy.Deploy.nodes.(0) > 500)

let suite =
  [
    Alcotest.test_case "unordered add/find" `Quick test_unordered_add_find;
    Alcotest.test_case "unordered mark/remove" `Quick test_unordered_mark_and_remove;
    Alcotest.test_case "unordered gc windows" `Quick test_unordered_gc_windows;
    Alcotest.test_case "unordered ingest order" `Quick test_unordered_ingest_order;
    Alcotest.test_case "unordered re-add keeps ordered" `Quick
      test_unordered_readd_keeps_ordered;
    Alcotest.test_case "unordered matches full-sweep oracle" `Quick
      test_unordered_matches_sweep_oracle;
    Alcotest.test_case "replier bound and applied" `Quick
      test_replier_bound_and_applied;
    Alcotest.test_case "replier caps dead node" `Quick test_replier_dead_node_bounded;
    Alcotest.test_case "replier reset" `Quick test_replier_reset;
    Alcotest.test_case "replier assign monotone" `Quick test_replier_assign_monotone;
    Alcotest.test_case "protocol AE sizing" `Quick test_protocol_ae_bytes;
    Alcotest.test_case "protocol metadata" `Quick test_protocol_meta;
    Alcotest.test_case "protocol request sizing" `Quick test_protocol_request_bytes;
    Alcotest.test_case "flow control caps and feedback" `Quick test_flow_control_caps;
    Alcotest.test_case "aggregator fanout and commit" `Quick
      test_aggregator_fanout_and_commit;
    Alcotest.test_case "aggregator quorum" `Quick test_aggregator_quorum_needs_majority;
    Alcotest.test_case "aggregator term flush" `Quick test_aggregator_term_flush;
    Alcotest.test_case "aggregator stale term" `Quick test_aggregator_stale_term_ignored;
    Alcotest.test_case "aggregator pending commit" `Quick
      test_aggregator_pending_commit_repeat;
    Alcotest.test_case "aggregator down" `Quick test_aggregator_down;
    Alcotest.test_case "cluster end-to-end all modes" `Slow
      test_cluster_end_to_end_each_mode;
    Alcotest.test_case "cluster replies load balanced" `Slow
      test_cluster_replies_load_balanced;
    Alcotest.test_case "cluster vanilla leader replies" `Slow
      test_cluster_vanilla_leader_replies_all;
    Alcotest.test_case "cluster recovery under loss" `Slow
      test_cluster_recovery_under_loss;
    Alcotest.test_case "cluster leader failover" `Slow test_cluster_leader_failover;
    Alcotest.test_case "cluster flow control overload" `Slow
      test_cluster_flow_control_prevents_collapse;
    Alcotest.test_case "cluster modes agree on state" `Slow
      test_cluster_hover_vs_vanilla_same_results;
    Alcotest.test_case "cluster kv workload" `Slow test_cluster_kv_workload_applies;
  ]
