(* hotspot-control: [Scenario.hotspot_drift] with the SLO-driven
   controller on — four co-located groups on a 1 GbE host budget, a
   drifting zipf over 2 M keys, a follower kill at 60% of the run, and
   controller-driven split and repair. The assembled run is
   [Scenario.run] taken apart into its public pieces; [Library] runs
   call [Scenario.run] itself, and both must give the same outcome. The
   knee is that of the fully split four-group cell under the same key
   mix without drift or faults: the capacity the controller can reach. *)

open Hovercraft_sim
open Hovercraft_core
open Common
module Op = Hovercraft_apps.Op
module Kvstore = Hovercraft_apps.Kvstore
module Zipf = Hovercraft_apps.Zipf
module Metrics = Hovercraft_obs.Metrics
module Traffic = Hovercraft_cluster.Traffic
module Chaos = Hovercraft_cluster.Chaos
module Experiment = Hovercraft_cluster.Experiment
module Shard_map = Hovercraft_shard.Shard_map
module Shard_deploy = Hovercraft_shard.Shard_deploy
module Shard_loadgen = Hovercraft_shard.Shard_loadgen
module Shard_chaos = Hovercraft_shard.Shard_chaos
module Shard_experiment = Hovercraft_shard.Shard_experiment
module Scenario = Hovercraft_control.Scenario
module Controller = Hovercraft_control.Controller

type sizing = { spec : Scenario.spec; lo : float; hi : float }

let sizing = function
  | Full -> { spec = Scenario.hotspot_drift ~duration:(Timebase.ms 1_500) (); lo = knee_lo; hi = 2e6 }
  | Tiny ->
      {
        spec = Scenario.hotspot_drift ~rate_rps:20_000. ~duration:(Timebase.ms 500) ();
        lo = 5_000.;
        hi = 9_000.;
      }

let drain = Timebase.ms 100

(* [Scenario.run]'s parameter widening. *)
let params (spec : Scenario.spec) ~seed =
  let p = Hnode.params ~mode:Hnode.Hover_pp ~n:spec.n () in
  let p = { p with Hnode.seed; cost = { p.Hnode.cost with Hnode.link_gbps = spec.link_gbps } } in
  {
    p with
    Hnode.timing =
      { p.Hnode.timing with Hnode.gc_ordered = (2 * spec.duration) + drain + Timebase.s 12 };
    features =
      {
        p.Hnode.features with
        Hnode.log_retain = max_int / 2;
        flow_control = true;
        snapshot_interval = 25_000;
      };
  }

(* The scenario's key mix: zipf over [records] keys, 128-byte values,
   drawing only from the load generator's RNG; [offset] slides the head. *)
let key_of r = Printf.sprintf "user%08d" r
let value_of seq = String.init 128 (fun j -> Char.chr (97 + ((seq + j) mod 26)))

let kv ~read_fraction ~theta ~records ~offset =
  let z = Zipf.create ~theta ~n:records () in
  let seq = ref 0 in
  fun rng ->
    let r = (Zipf.sample z rng + offset ()) mod records in
    if Rng.bool rng read_fraction then Op.Kv (Kvstore.Get (key_of r))
    else begin
      incr seq;
      Op.Kv (Kvstore.Put (key_of r, value_of !seq))
    end

let make_workload (spec : Scenario.spec) engine ~t0 =
  match spec.workload with
  | Scenario.Zipf_kv { read_fraction; theta; records } ->
      kv ~read_fraction ~theta ~records ~offset:(fun () -> 0)
  | Scenario.Drifting_kv { read_fraction; theta; records; period } ->
      let offset () =
        let t = (Engine.now engine - t0) mod period in
        int_of_float (float_of_int records *. float_of_int t /. float_of_int period)
      in
      kv ~read_fraction ~theta ~records ~offset

let static_mix (spec : Scenario.spec) =
  match spec.workload with
  | Scenario.Zipf_kv { read_fraction; theta; records }
  | Scenario.Drifting_kv { read_fraction; theta; records; _ } ->
      kv ~read_fraction ~theta ~records ~offset:(fun () -> 0)

let knee size ~seed =
  let z = sizing size in
  let spec = z.spec in
  Shard_experiment.max_under_slo ~lo:z.lo ~hi:z.hi
    (Shard_experiment.setup ~flow_cap:spec.flow_cap ~seed ~shards:spec.shards
       (params spec ~seed) (static_mix spec))

let setup (spec : Scenario.spec) ~seed =
  Probe.span "cluster.setup" (fun () ->
      Shard_deploy.create
        (Shard_deploy.config ~active:spec.active ~flow_cap:spec.flow_cap ~shards:spec.shards
           (params spec ~seed)))

let time_setup size ~seed =
  let z = sizing size in
  let t = Probe.now () in
  ignore (setup z.spec ~seed);
  Probe.now () -. t

let controller (spec : Scenario.spec) = Controller.config ~slo_p99:spec.slo_p99 ()

let library z ~seed = Scenario.run ~controller:(controller z.spec) z.spec ~seed ()

(* [Scenario.run], step for step, for the fault kinds hotspot-drift
   schedules. *)
let assembled (spec : Scenario.spec) ~seed ~traced =
  let sd = setup spec ~seed in
  let groups = Shard_deploy.groups sd in
  let glist = Array.to_list groups in
  let terms0 = start_terms glist in
  let engine = Shard_deploy.engine sd in
  let t0 = Engine.now engine in
  let secs at = Timebase.to_s_f (at - t0) in
  let events = ref [] in
  let note fmt =
    Format.kasprintf (fun s -> events := (secs (Engine.now engine), s) :: !events) fmt
  in
  let completed_writes = ref [] in
  let tl = timeline ~from:(t0 + spec.warmup) ~until:(t0 + spec.duration) in
  let profile = match spec.profile with [] -> None | pts -> Some (Traffic.profile pts) in
  let workload, ops = Replay.instrument ~traced (make_workload spec engine ~t0) in
  let gen =
    Shard_loadgen.create sd ~clients:8 ~rate_rps:spec.rate_rps ?profile ~workload
      ~retry:(Timebase.ms 50, 8)
      ~on_reply:(fun ~rid ~op ~sent_at:_ ~latency ->
        if not (Op.read_only op) then completed_writes := rid :: !completed_writes;
        record tl ~at:(Engine.now engine) latency)
      ~seed ()
  in
  List.iter
    (fun f ->
      let schedule at body =
        Engine.after engine at (fun () -> Probe.span "cluster.fault" body)
      in
      match f with
      | Scenario.Kill { at; group; node } ->
          schedule at (fun () ->
              Deploy.kill_node groups.(group) node;
              note "fault: kill group%d/node%d" group node)
      | Scenario.Kill_leader { at; group } ->
          schedule at (fun () ->
              match Deploy.kill_leader groups.(group) with
              | Some i -> note "fault: kill group%d leader (node%d)" group i
              | None -> note "fault: group%d kill-leader found nothing" group)
      | Scenario.Restart { at; group; node } ->
          schedule at (fun () ->
              Deploy.restart_node groups.(group) node;
              note "fault: restart group%d/node%d" group node)
      | Scenario.Slow _ | Scenario.Heal_slow _ ->
          invalid_arg "hotspot-control: slow-node faults are not assembled")
    spec.faults;
  let ctrl = Controller.create ~cfg:(controller spec) sd gen in
  let windows = ref [] in
  let stop_at = t0 + spec.duration in
  let measure_from = t0 + spec.warmup in
  let rotate_all () =
    Metrics.rotate (Shard_loadgen.latency_window gen);
    for g = 0 to spec.shards - 1 do
      Metrics.rotate (Shard_loadgen.group_latency_window gen g)
    done
  in
  let judge ~w_end =
    let w = Shard_loadgen.latency_window gen in
    let count = Metrics.last_count w in
    let p99_us = Timebase.to_us_f (Metrics.last_percentile w 0.99) in
    let mid = w_end - (spec.tick / 2) in
    let rate = match profile with Some p -> Traffic.rate_at p (mid - t0) | None -> spec.rate_rps in
    let expected = rate *. Timebase.to_s_f spec.tick in
    let good =
      count > 0 && p99_us <= Timebase.to_us_f spec.slo_p99 && float_of_int count >= 0.3 *. expected
    in
    windows :=
      { Scenario.w_end_s = secs w_end; w_count = count; w_expected = expected; w_p99_us = p99_us; w_good = good }
      :: !windows
  in
  let rec tick_at k =
    let at = measure_from + (k * spec.tick) in
    if at <= stop_at then
      Engine.at engine at (fun () ->
          rotate_all ();
          if k > 0 then begin
            judge ~w_end:at;
            Probe.span "control.tick" (fun () -> Controller.tick ctrl)
          end;
          tick_at (k + 1))
  in
  tick_at 0;
  let report =
    Probe.span "sim.load" (fun () ->
        Shard_loadgen.run gen ~warmup:spec.warmup ~duration:spec.duration ~drain ())
  in
  Array.iter
    (fun (d : Deploy.t) ->
      if Fabric.partitioned d.Deploy.fabric then Fabric.heal d.Deploy.fabric;
      Fabric.clear_link_faults d.Deploy.fabric;
      Array.iteri
        (fun i node ->
          if (not (Hnode.alive node)) && not (Deploy.is_removed d i) then Deploy.restart_node d i)
        d.Deploy.nodes)
    groups;
  let converged () =
    (not (Shard_deploy.migrating sd))
    && Shard_deploy.total_pending_recoveries sd = 0
    && Array.for_all
         (fun d ->
           let live = Deploy.live_nodes d in
           let max_commit = List.fold_left (fun acc nd -> max acc (Hnode.commit_index nd)) 0 live in
           List.for_all (fun nd -> Hnode.applied_index nd >= max_commit) live)
         groups
  in
  let rec settle tries =
    Probe.span "sim.drain" (fun () -> Shard_deploy.quiesce sd ~extra:(Timebase.ms 200) ());
    if (not (converged ())) && tries > 0 then settle (tries - 1)
  in
  settle 50;
  let violations = ref [] in
  let exactly_once_ok = ref true in
  let caught_up = ref true in
  let preserved, consistent =
    Probe.span "cluster.check" (fun () ->
        Array.iteri
          (fun g d ->
            let v, eo, _, cu, _ = Chaos.check ~snapshots:true d ~completed_writes:[] in
            List.iter (fun s -> violations := Printf.sprintf "shard%d: %s" g s :: !violations) v;
            if not eo then exactly_once_ok := false;
            if not cu then caught_up := false)
          groups;
        let xviol, xeo, preserved =
          Shard_chaos.cross_map_check groups ~completed_writes:!completed_writes
        in
        violations := List.rev_append (List.rev xviol) !violations;
        if not xeo then exactly_once_ok := false;
        let consistent = Shard_deploy.consistent sd in
        if not consistent then violations := "live replica fingerprints diverge" :: !violations;
        (preserved, consistent))
  in
  let windows = List.rev !windows in
  let n_windows = List.length windows in
  let good_windows = List.fold_left (fun acc w -> if w.Scenario.w_good then acc + 1 else acc) 0 windows in
  let outcome =
    {
      Scenario.spec_name = spec.name;
      controller_on = true;
      report;
      windows;
      n_windows;
      good_windows;
      slo_fraction =
        (if n_windows = 0 then 0. else float_of_int good_windows /. float_of_int n_windows);
      worst_p99_us = List.fold_left (fun acc w -> Float.max acc w.Scenario.w_p99_us) 0. windows;
      actions = List.map (fun (at, s) -> (secs at, s)) (Controller.actions ctrl);
      events = List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !events);
      notes = List.map (fun (at, s) -> (secs at, s)) (Shard_deploy.notes sd);
      violations = List.rev !violations;
      exactly_once_ok = !exactly_once_ok;
      committed_preserved = preserved;
      caught_up = !caught_up;
      consistent;
      retried = Shard_loadgen.retried gen;
      rerouted = Shard_loadgen.rerouted gen;
      migrations = Shard_deploy.migrations sd;
      map_version = Shard_map.version (Shard_deploy.map sd);
      pending_recoveries = Shard_deploy.total_pending_recoveries sd;
    }
  in
  let sim =
    e2e_sim ~report ~stats:(Shard_loadgen.stats gen) ~tl ~rate_rps:spec.rate_rps
    @ layer_counters glist ~terms0 ~sent:report.sent ~span:(spec.duration - spec.warmup)
    @ [ ("cluster.retried", float_of_int outcome.retried) ]
  in
  export glist;
  if traced then Replay.kv_exec ~preload:[] (ops ());
  (outcome, sim, fingerprints glist)

(* Metrics read off the scenario outcome, either way it was produced. *)
let outcome_counters (o : Scenario.outcome) =
  [
    ("shard.migrations", float_of_int o.migrations);
    ("shard.rerouted", float_of_int o.rerouted);
    ("shard.retried", float_of_int o.retried);
    ("control.actions", float_of_int (List.length o.actions));
    ("control.first_action_s", match o.actions with (at, _) :: _ -> at | [] -> 0.);
    ("control.good_windows", float_of_int o.good_windows);
    ("control.worst_p99_us", o.worst_p99_us);
  ]

(* One repetition; the load-driving call is the whole [Scenario.run] or
   its assembled equivalent. *)
let run size ~seed mode =
  let z = sizing size in
  let t_rep = Probe.now () in
  let gc0 = Probe.gc_now () in
  let outcome, sim, fps =
    Probe.span "control.scenario" (fun () ->
        match mode with
        | Library -> (library z ~seed, [], "-")
        | Assembled | Traced -> assembled z.spec ~seed ~traced:(mode = Traced))
  in
  let drive_s = Probe.now () -. t_rep in
  let gc_drive = Probe.gc_since gc0 in
  Probe.span "obs.export" (fun () ->
      ignore (Hovercraft_obs.Json.to_string (Hovercraft_control.Experiment.outcome_json outcome)));
  let r = outcome.report in
  {
    mode;
    outcome = digest outcome;
    pin =
      Printf.sprintf "%s windows=%d/%d actions=%d migrations=%d" (report_line r)
        outcome.good_windows outcome.n_windows (List.length outcome.actions) outcome.migrations;
    fingerprints = fps;
    sim = (if sim = [] then [] else sim @ outcome_counters outcome);
    violations =
      (if Scenario.checkers_green outcome then []
       else if outcome.violations <> [] then outcome.violations
       else [ "scenario checkers not green" ]);
    sent = r.sent;
    failed = r.lost;
    wall_s = Probe.now () -. t_rep;
    drive_s;
    gc_drive;
  }
