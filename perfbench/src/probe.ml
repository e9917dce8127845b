(* Host-side instrumentation for the benchmark: a wall clock, spans kept
   in memory around the benchmark's own calls into each layer, named
   time accumulators for per-request work, and GC counter deltas.

   Spans and accumulators record only while [tracing] is set; the
   untraced runs that produce the end-to-end numbers read the clock a
   handful of times per phase and nothing per request. *)

let now = Unix.gettimeofday

type span = { id : int; name : string; start : float; stop : float; parent : int }
(** [parent] is the id of the enclosing span, or -1 at top level. *)

let tracing = ref false
let spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0
let accum : (string, float ref * int ref) Hashtbl.t = Hashtbl.create 8

let reset () =
  spans := [];
  open_spans := [];
  next_id := 0;
  Hashtbl.reset accum

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let start = now () in
    Fun.protect f ~finally:(fun () ->
        let stop = now () in
        open_spans := List.tl !open_spans;
        spans := { id; name; start; stop; parent } :: !spans)
  end

(* Seconds spent in spans called [name], summed. *)
let total name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.stop -. s.start) else acc)
    0. !spans

(* Add [seconds] over [calls] calls to the accumulator [name]. *)
let charge name ~seconds ~calls =
  let time, n =
    match Hashtbl.find_opt accum name with
    | Some c -> c
    | None ->
        let c = (ref 0., ref 0) in
        Hashtbl.replace accum name c;
        c
  in
  time := !time +. seconds;
  n := !n + calls

(* Per-request timing without a span per request: [timed name f]
   charges f's duration as one call of [name]. *)
let timed name f =
  if not !tracing then f ()
  else begin
    let t0 = now () in
    let r = f () in
    charge name ~seconds:(now () -. t0) ~calls:1;
    r
  end

(* Mean nanoseconds per call of accumulator [name]; 0 if never called. *)
let ns_per_call name =
  match Hashtbl.find_opt accum name with
  | Some (time, calls) when !calls > 0 -> !time *. 1e9 /. float_of_int !calls
  | _ -> 0.

let spans_json () =
  let one s =
    Printf.sprintf
      {|{"id":%d,"name":"%s","start":%.6f,"end":%.6f,"parent":%d}|} s.id
      s.name s.start s.stop s.parent
  in
  "[" ^ String.concat ",\n" (List.rev_map one !spans) ^ "]\n"

(* --- allocation --------------------------------------------------- *)

type gc = { minor_words : float; promoted_words : float; major_collections : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    major_collections = s.Gc.major_collections;
  }

let gc_since a =
  let b = gc_now () in
  {
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    major_collections = b.major_collections - a.major_collections;
  }

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6
