(* Running a workload: search its knee, run its repetitions, gate on
   correctness and determinism, and reduce the repetitions to the
   end-to-end metrics (untraced) or the per-layer metrics (traced). *)

open Common

type workload = {
  name : string;
  knee : size -> seed:int -> float;  (** The SLO knee of the fault-free cell, RPS. *)
  run : size -> seed:int -> mode -> rep;
  time_setup : size -> seed:int -> float;
  library : bool;  (** Has a one-shot library runner to reproduce. *)
  min_reps : int;
      (** Repetitions an untraced run makes even past [--seconds]: more
          where one repetition is short against the host's load swings. *)
}

let workloads =
  [
    {
      name = "pp-read-knee";
      knee = Read_knee.knee;
      run = Read_knee.run;
      time_setup = Read_knee.time_setup;
      library = false;
      min_reps = 4;
    };
    {
      name = "write-chaos";
      knee = Write_chaos.knee;
      run = Write_chaos.run;
      time_setup = Write_chaos.time_setup;
      library = true;
      min_reps = 1;
    };
    {
      name = "hotspot-control";
      knee = Hotspot.knee;
      run = Hotspot.run;
      time_setup = Hotspot.time_setup;
      library = true;
      min_reps = 1;
    };
  ]

(* Name and unit of every metric, in output order. *)
let end_to_end =
  [
    ("knee_krps", "kRPS");
    ("goodput_krps", "kRPS");
    ("p50_us", "us");
    ("p99_us", "us");
    ("p9999_us", "us");
    ("served_frac", "ratio");
    ("up_frac", "ratio");
    ("slo_frac", "ratio");
    ("wall_s", "s");
    ("host_us_per_req", "us");
    ("setup_s", "s");
    ("heap_peak_mb", "MB");
  ]

let per_layer =
  [
    ("cluster.setup_s", "s");
    ("cluster.knee_search_s", "s");
    ("sim.load_s", "s");
    ("sim.drain_s", "s");
    ("cluster.fault_s", "s");
    ("cluster.check_s", "s");
    ("control.scenario_s", "s");
    ("control.tick_s", "s");
    ("obs.export_s", "s");
    ("apps.gen_ns_per_req", "ns");
    ("apps.kv_exec_ns_per_op", "ns");
    ("trace.overhead_frac", "ratio");
    ("gc.minor_words_per_req", "words");
    ("gc.promoted_words_per_req", "words");
    ("gc.major_collections", "count");
    ("net.tx_pkts_per_req", "pkts");
    ("net.tx_bytes_per_req", "B");
    ("net.leader_tx_pkts_per_req", "pkts");
    ("net.drops", "count");
    ("core.leader_net_busy_frac", "ratio");
    ("core.leader_net_ns_per_req", "ns");
    ("core.follower_net_ns_per_req", "ns");
    ("core.app_ns_per_req", "ns");
    ("core.executed_per_req", "ops");
    ("core.reply_imbalance", "ratio");
    ("core.recoveries_sent", "count");
    ("core.recovery_escalations", "count");
    ("core.nacked", "count");
    ("raft.elections", "count");
    ("raft.snapshots_taken", "count");
    ("raft.installs", "count");
    ("raft.max_log_base", "index");
    ("cluster.sent", "count");
    ("cluster.retried", "count");
    ("cluster.lost", "count");
    ("cluster.fail_frac", "ratio");
    ("cluster.outage_ms", "ms");
    ("shard.migrations", "count");
    ("shard.rerouted", "count");
    ("shard.retried", "count");
    ("control.actions", "count");
    ("control.first_action_s", "s");
    ("control.good_windows", "count");
    ("control.worst_p99_us", "us");
  ]

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type result = {
  correct : bool;
  problems : string list;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (** name, unit, value *)
}

(* The determinism pin across a seed's repetitions: one outcome for all,
   and identical simulated metrics and fingerprints wherever the
   deployment was visible. *)
let determinism reps =
  let agree what key =
    match List.filter_map key reps with
    | k0 :: rest when List.exists (fun k -> compare k k0 <> 0) rest ->
        [ "same-seed repetitions disagree on " ^ what ]
    | _ -> []
  in
  agree "the simulated outcome" (fun r -> Some r.outcome)
  @ agree "simulated metrics" (fun r -> if r.sim = [] then None else Some r.sim)
  @ agree "fingerprints" (fun r -> if r.fingerprints = "-" then None else Some r.fingerprints)

let gate ~knee reps =
  (if knee = 0. then [ "no rate meets the SLO" ] else [])
  @ List.concat_map (fun r -> List.map (fun v -> mode_name r.mode ^ ": " ^ v) r.violations) reps
  @ determinism reps

let lookup table name = Option.value ~default:0. (List.assoc_opt name table)

let reduce ~problems ~reps metrics =
  let rep0 = List.hd reps in
  { correct = problems = []; problems; attempted = rep0.sent; failed = rep0.failed; metrics }

let log_rep r =
  Printf.printf "  %-9s wall %.3fs drive %.3fs | %s fingerprints=%s\n%!" (mode_name r.mode)
    r.wall_s r.drive_s r.pin r.fingerprints

let search_knee w size ~seed =
  let t0 = Probe.now () in
  let knee = Probe.span "cluster.knee_search" (fun () -> w.knee size ~seed) in
  let knee_s = Probe.now () -. t0 in
  Printf.printf "  knee      %.3fs | %.0f rps\n%!" knee_s knee;
  (knee, knee_s)

(* A burst of timed set-ups, started from a collected heap so that none
   pays for garbage the phase before it left. The count is fixed, not
   timed, so the run's allocation, and with it heap_peak_mb, does not
   depend on the host's speed. *)
let setup_burst w size ~seed =
  Gc.full_major ();
  List.init 20 (fun _ -> w.time_setup size ~seed)

(* Untraced: the knee search, then repetitions of the rest of the
   workload until [seconds] have passed and the workload's [min_reps]
   (at full size) are done, but none that would overrun [budget].
   Set-up bursts at the start, after the knee search and at the end feed
   setup_s, so its median spans the run rather than one moment of the
   host's load. *)
let untraced w size ~seed ~seconds ~budget =
  let t_start = Probe.now () in
  let min_reps = match size with Full -> w.min_reps | Tiny -> 1 in
  let first = setup_burst w size ~seed in
  let knee, knee_s = search_knee w size ~seed in
  let second = setup_burst w size ~seed in
  let rec go acc =
    let elapsed = Probe.now () -. t_start in
    let last = match acc with r :: _ -> r.wall_s | [] -> 0. in
    let enough = List.length acc >= min_reps && elapsed >= seconds in
    if acc <> [] && (enough || elapsed +. last > budget) then List.rev acc
    else begin
      let r = w.run size ~seed Assembled in
      log_rep r;
      go (r :: acc)
    end
  in
  let reps = go [] in
  let setups = first @ second @ setup_burst w size ~seed in
  let host =
    [
      ("knee_krps", knee /. 1e3);
      ("wall_s", knee_s +. median (List.map (fun r -> r.wall_s) reps));
      ( "host_us_per_req",
        median (List.map (fun r -> r.drive_s *. 1e6 /. float_of_int (max 1 r.sent)) reps) );
      ("setup_s", median setups);
      ("heap_peak_mb", Probe.heap_peak_mb ());
    ]
  in
  reduce ~problems:(gate ~knee reps) ~reps
    (List.map (fun (n, u) -> (n, u, lookup ((List.hd reps).sim @ host) n)) end_to_end)

(* Traced: the knee search under its span, then one untraced repetition
   — by the library runner where there is one — as the baseline for the
   tracing overhead and the source of the allocation counts, then a
   repetition with spans on. The knee search goes first so that both
   repetitions start on an already grown heap. The two repetitions are a
   same-seed pair and must agree exactly on the simulated outcome; for a
   workload with a library runner this is also the check that the
   assembled run reproduces it. *)
let traced w size ~seed ~out =
  Probe.reset ();
  Probe.tracing := true;
  let knee, _ = search_knee w size ~seed in
  Probe.tracing := false;
  let base = w.run size ~seed (if w.library then Library else Assembled) in
  log_rep base;
  Probe.tracing := true;
  let t = w.run size ~seed Traced in
  Probe.tracing := false;
  log_rep t;
  let per_req x = x /. float_of_int (max 1 base.sent) in
  let host =
    [
      ("cluster.setup_s", Probe.total "cluster.setup");
      ("cluster.knee_search_s", Probe.total "cluster.knee_search");
      ("sim.load_s", Probe.total "sim.load");
      ("sim.drain_s", Probe.total "sim.drain");
      ("cluster.fault_s", Probe.total "cluster.fault");
      ("cluster.check_s", Probe.total "cluster.check");
      ("control.scenario_s", Probe.total "control.scenario");
      ("control.tick_s", Probe.total "control.tick");
      ("obs.export_s", Probe.total "obs.export");
      ("apps.gen_ns_per_req", Probe.ns_per_call "apps.gen");
      ("apps.kv_exec_ns_per_op", Probe.ns_per_call "apps.kv_exec");
      ("trace.overhead_frac", (t.drive_s /. base.drive_s) -. 1.);
      ("gc.minor_words_per_req", per_req base.gc_drive.minor_words);
      ("gc.promoted_words_per_req", per_req base.gc_drive.promoted_words);
      ("gc.major_collections", float_of_int base.gc_drive.major_collections);
    ]
  in
  (try
     if not (Sys.file_exists out) then Sys.mkdir out 0o755;
     let file = Filename.concat out (Printf.sprintf "spans-%s-seed%d.json" w.name seed) in
     Out_channel.with_open_text file (fun oc -> output_string oc (Probe.spans_json ()));
     Printf.printf "  spans: %s\n" file
   with Sys_error e -> Printf.printf "  spans not written: %s\n" e);
  reduce ~problems:(gate ~knee [ base; t ]) ~reps:[ base; t ]
    (List.map (fun (n, u) -> (n, u, lookup (t.sim @ host) n)) per_layer)

let json_of_result r =
  let num v = Printf.sprintf "%.17g" v in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} r.correct
    r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) -> Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} n (num v) u)
          r.metrics))
