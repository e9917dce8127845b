(* What one repetition of a workload yields, and the measurements every
   workload computes the same way: completion timelines judged into SLO
   windows and outage buckets, and the per-layer counters read from a
   deployment's public accessors after the run. *)

open Hovercraft_sim
open Hovercraft_core
module Deploy = Hovercraft_cluster.Deploy
module Fabric = Hovercraft_net.Fabric
module Loadgen = Hovercraft_cluster.Loadgen

type size = Full | Tiny
(** [Tiny] shrinks every workload to a short simulated run for the
    self-test; the benchmark always runs [Full]. *)

(* How a repetition is driven. [Assembled] and [Traced] run the
   benchmark's own composition of the layers' public calls (spans on in
   [Traced]); [Library] calls the library's one-shot runner
   ([Chaos.run], [Scenario.run]) on the same inputs, and must reproduce
   the assembled run's outcome exactly. *)
type mode = Assembled | Library | Traced

let mode_name = function
  | Assembled -> "assembled"
  | Library -> "library"
  | Traced -> "traced"

type rep = {
  mode : mode;
  outcome : string;
      (** Digest of the library-typed outcome of the workload's run:
          equal across every repetition of a seed, whatever the mode. *)
  pin : string;  (** Human-readable determinism pin, printed per run. *)
  fingerprints : string;
      (** The leaders' state fingerprints, one per group; "-" for
          [Library] runs. *)
  sim : (string * float) list;
      (** Simulated metrics and counts, exact; [] for [Library] runs,
          whose runner hides the deployment. *)
  violations : string list;  (** The correctness gate; [] = pass. *)
  sent : int;
  failed : int;
      (** Requests never answered. A NACK is an answer: shed load shows in
          [served_frac], not here. *)
  wall_s : float;  (** The whole repetition, set-up included, knee search excluded. *)
  drive_s : float;  (** The load-driving call (see the notes). *)
  gc_drive : Probe.gc;  (** Allocation during the load-driving call. *)
}

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let slo = Timebase.us 500

(* Where the knee searches start. A Fast-quality probe window then
   holds at least 9 000 requests, so Poisson noise alone cannot fail the
   97%-goodput rule. At the 5 kRPS default the first probe's 4 000
   requests fail it a few percent of the time, and the search then
   reports a knee of 0 (seen on hotspot-control's cell with seed 5). *)
let knee_lo = 300_000.

(* --- completion timelines ---------------------------------------- *)

(* Completions bucketed by simulated completion time over [from, until),
   20 ms per bucket. *)
type timeline = { from : Timebase.t; width : Timebase.t; buckets : Stats.t array }

let bucket_width = Timebase.ms 20

let timeline ~from ~until =
  let n = max 1 ((until - from) / bucket_width) in
  { from; width = bucket_width; buckets = Array.init n (fun _ -> Stats.create ()) }

let record tl ~at latency =
  let k = (at - tl.from) / tl.width in
  if at >= tl.from && k < Array.length tl.buckets then Stats.add tl.buckets.(k) latency

(* Simulated time in buckets that completed under 90% of the offered
   rate. *)
let outage_ms tl ~rate_rps =
  let expected = rate_rps *. Timebase.to_s_f tl.width in
  Array.fold_left
    (fun acc b ->
      if float_of_int (Stats.count b) < 0.9 *. expected then
        acc +. (Timebase.to_s_f tl.width *. 1e3)
      else acc)
    0. tl.buckets

(* Buckets that met the SLO by the scenario runner's rule — p99 within
   500 us and at least 30% of the offered completions — as
   (good, judged). *)
let slo_windows tl ~rate_rps =
  let expected = rate_rps *. Timebase.to_s_f tl.width in
  let good =
    Array.fold_left
      (fun acc b ->
        let c = Stats.count b in
        if c > 0 && Stats.percentile b 0.99 <= slo && float_of_int c >= 0.3 *. expected
        then acc + 1
        else acc)
      0 tl.buckets
  in
  (good, Array.length tl.buckets)

(* The p99.99 latency: the highest percentile with at least ten samples
   beyond it at these run sizes. 0 below 100 000 samples, where fewer
   than ten would lie beyond it. *)
let p9999_us stats =
  if Stats.count stats < 100_000 then 0. else Timebase.to_us_f (Stats.percentile stats 0.9999)

(* --- per-layer counters ------------------------------------------- *)

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let fmax f l = List.fold_left (fun acc x -> Float.max acc (f x)) 0. l

let start_terms groups =
  List.map (fun d -> Array.fold_left (fun acc n -> max acc (Hnode.term n)) 0 d.Deploy.nodes) groups

(* Counters of the net, core and raft layers summed over [groups]
   (one deployment, or every group of a sharded one), as ratios to
   [sent] for the per-request figures. [span] is the
   simulated length of the load phase. *)
let layer_counters groups ~terms0 ~sent ~span =
  let per_req x = if sent = 0 then 0. else x /. float_of_int sent in
  let nodes = List.concat_map (fun d -> Array.to_list d.Deploy.nodes) groups in
  let live = List.concat_map Deploy.live_nodes groups in
  let leaders = List.filter_map Deploy.leader groups in
  let followers = List.filter (fun n -> not (Hnode.is_leader n)) live in
  let ports = List.concat_map (fun d -> List.map snd (Fabric.ports d.Deploy.fabric)) groups in
  let fi = float_of_int in
  let ns t = fi t in
  let replies = List.map (fun n -> fi (Hnode.replies_sent n)) live in
  let mean_replies = if live = [] then 0. else sum Fun.id replies /. fi (List.length live) in
  [
    ("net.tx_pkts_per_req", per_req (sum (fun p -> fi (Fabric.tx_packets p)) ports));
    ("net.tx_bytes_per_req", per_req (sum (fun p -> fi (Fabric.tx_wire_bytes p)) ports));
    ( "net.leader_tx_pkts_per_req",
      per_req (sum (fun l -> fi (Fabric.tx_packets (Hnode.port l))) leaders) );
    ( "net.drops",
      sum (fun p -> fi (Fabric.dropped p)) ports
      +. sum
           (fun d ->
             fi (Fabric.injected_drops d.Deploy.fabric + Fabric.partition_drops d.Deploy.fabric))
           groups );
    ( "core.leader_net_busy_frac",
      if span <= 0 then 0. else fmax (fun l -> ns (Hnode.net_busy_time l)) leaders /. ns span );
    ("core.leader_net_ns_per_req", per_req (sum (fun l -> ns (Hnode.net_busy_time l)) leaders));
    ( "core.follower_net_ns_per_req",
      if followers = [] then 0.
      else
        per_req (sum (fun n -> ns (Hnode.net_busy_time n)) followers)
        /. fi (List.length followers) );
    ("core.app_ns_per_req", per_req (fmax (fun n -> ns (Hnode.app_busy_time n)) nodes));
    ( "core.executed_per_req",
      per_req (sum (fun n -> fi (Hnode.executed_ops n - Hnode.preloaded n)) nodes) );
    ( "core.reply_imbalance",
      if mean_replies = 0. then 0. else fmax Fun.id replies /. mean_replies );
    ("core.recoveries_sent", sum (fun n -> fi (Hnode.recoveries_sent n)) nodes);
    ("core.recovery_escalations", sum (fun n -> fi (Hnode.recovery_escalations n)) nodes);
    ( "core.nacked",
      sum
        (fun d ->
          match d.Deploy.flow with
          | Some f -> fi (Hovercraft_core.Flow_control.nacked f)
          | None -> 0.)
        groups );
    ( "raft.elections",
      List.fold_left2
        (fun acc d t0 ->
          acc +. fi (Array.fold_left (fun m n -> max m (Hnode.term n)) 0 d.Deploy.nodes - t0))
        0. groups terms0 );
    ("raft.snapshots_taken", sum (fun n -> fi (Hnode.snapshots_taken n)) nodes);
    ("raft.installs", sum (fun n -> fi (Hnode.installs_received n)) live);
    ("raft.max_log_base", fmax (fun n -> fi (Hnode.log_base n)) live);
  ]

(* The leader's state fingerprint per group ("-" for a leaderless
   group), the determinism pin. *)
let fingerprints groups =
  String.concat ","
    (List.map
       (fun d ->
         match Deploy.leader d with
         | Some l -> Printf.sprintf "%016x" (Hnode.app_fingerprint l)
         | None -> "-")
       groups)

let export groups =
  Probe.span "obs.export" (fun () ->
      List.iter (fun d -> ignore (Hovercraft_obs.Json.to_string (Deploy.snapshot d))) groups)

let report_line (r : Loadgen.report) =
  Printf.sprintf
    "sent=%d completed=%d nacked=%d lost=%d goodput=%.3fkrps p50=%.3fus p99=%.3fus max=%.3fus"
    r.sent r.completed r.nacked r.lost (r.goodput_rps /. 1e3) r.p50_us r.p99_us r.max_us

(* The simulated end-to-end metrics common to every workload. *)
let e2e_sim ~(report : Loadgen.report) ~stats ~tl ~rate_rps =
  let failed = report.nacked + report.lost in
  let good, judged = slo_windows tl ~rate_rps in
  let span_ms = Timebase.to_s_f (Array.length tl.buckets * tl.width) *. 1e3 in
  [
    ("goodput_krps", report.goodput_rps /. 1e3);
    ("p50_us", report.p50_us);
    ("p99_us", report.p99_us);
    ("p9999_us", p9999_us stats);
    ("served_frac", 1. -. (float_of_int failed /. float_of_int (max 1 report.sent)));
    ("up_frac", 1. -. (outage_ms tl ~rate_rps /. span_ms));
    ("slo_frac", if judged = 0 then 0. else float_of_int good /. float_of_int judged);
    ("cluster.sent", float_of_int report.sent);
    ("cluster.lost", float_of_int report.lost);
    ("cluster.fail_frac", float_of_int failed /. float_of_int (max 1 report.sent));
    ("cluster.outage_ms", outage_ms tl ~rate_rps);
  ]
