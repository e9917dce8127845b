(* pp-read-knee: the paper's headline cell. HovercRaft++ with N=3 on
   40 GbE under YCSB-B (the netscale S=1 cell): the SLO knee search,
   then one measured open-loop run at a fixed rate on a retained
   deployment. *)

open Hovercraft_sim
open Hovercraft_core
open Common
module Experiment = Hovercraft_cluster.Experiment

type sizing = { rate_rps : float; warmup : Timebase.t; duration : Timebase.t; lo : float; hi : float }

let sizing = function
  | Full ->
      { rate_rps = 1.5e6; warmup = Timebase.ms 25; duration = Timebase.ms 150; lo = knee_lo; hi = 8e6 }
  | Tiny ->
      { rate_rps = 50_000.; warmup = Timebase.ms 2; duration = Timebase.ms 12; lo = 5_000.; hi = 9_000. }

let cell ~seed = Experiment.netscale_setup ~seed ~stages:1

let setup (s : Experiment.setup) =
  Probe.span "cluster.setup" (fun () ->
      let d = Deploy.create (Deploy.config ?flow_cap:s.flow_cap s.params) in
      Array.iter (fun n -> Hnode.preload n s.preload) d.Deploy.nodes;
      d)

(* One set-up of the measured run's deployment, timed. *)
let time_setup _size ~seed =
  let s = cell ~seed in
  let t = Probe.now () in
  ignore (setup s);
  Probe.now () -. t

let knee size ~seed =
  let z = sizing size in
  Experiment.max_under_slo ~lo:z.lo ~hi:z.hi (cell ~seed)

let run size ~seed mode =
  let z = sizing size in
  let t_rep = Probe.now () in
  let s = cell ~seed in
  let deploy = setup s in
  let engine = deploy.Deploy.engine in
  let terms0 = start_terms [ deploy ] in
  let workload, ops = Replay.instrument ~traced:(mode = Traced) s.workload in
  let t0 = Engine.now engine in
  let tl = timeline ~from:(t0 + z.warmup) ~until:(t0 + z.duration) in
  let gen =
    Loadgen.create deploy ~clients:s.clients ~rate_rps:z.rate_rps ~workload
      ~on_reply:(fun ~rid:_ ~op:_ ~sent_at ~latency -> record tl ~at:(sent_at + latency) latency)
      ~seed:(s.seed + 7) ()
  in
  let gc_load = Probe.gc_now () in
  let t_load = Probe.now () in
  let report =
    Probe.span "sim.load" (fun () -> Loadgen.run gen ~warmup:z.warmup ~duration:z.duration ())
  in
  let drive_s = Probe.now () -. t_load in
  let gc_drive = Probe.gc_since gc_load in
  let span = z.duration in
  Probe.span "sim.drain" (fun () -> Deploy.quiesce deploy ~extra:(Timebase.ms 100) ());
  let consistent = Probe.span "cluster.check" (fun () -> Deploy.consistent deploy) in
  export [ deploy ];
  let wall_s = Probe.now () -. t_rep in
  let fps = fingerprints [ deploy ] in
  let violations =
    (if consistent then [] else [ "replica fingerprints diverge after quiesce" ])
    @ if report.lost = 0 then [] else [ Printf.sprintf "%d requests lost" report.lost ]
  in
  let sim =
    e2e_sim ~report ~stats:(Loadgen.stats gen) ~tl ~rate_rps:z.rate_rps
    @ layer_counters [ deploy ] ~terms0 ~sent:report.sent ~span
    @ [ ("cluster.retried", float_of_int (Loadgen.retried gen)) ]
  in
  if mode = Traced then Replay.kv_exec ~preload:s.preload (ops ());
  {
    mode;
    outcome = digest (report, fps, consistent);
    pin = Printf.sprintf "%s consistent=%b" (report_line report) consistent;
    fingerprints = fps;
    sim;
    violations;
    sent = report.sent;
    failed = report.lost;
    wall_s;
    drive_s;
    gc_drive;
  }
