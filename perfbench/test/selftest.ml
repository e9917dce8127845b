(* The benchmark's self-test, at tiny size: every workload passes its
   gate and prints every metric BENCHMARK.json names, with its unit, in
   both the untraced and the traced run; same-seed repetitions agree
   exactly, the assembled runs reproduce the library runners, and a
   corrupted client history makes the write-chaos gate fail. *)

open Perfbench
module Json = Hovercraft_obs.Json

let failures = ref 0

let check what ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
  if not ok then incr failures

let seed = 3

(* (name, unit) pairs of one metric family of BENCHMARK.json. *)
let declared family =
  let text = In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all in
  match Json.of_string text with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok j -> (
      match Json.member family j with
      | Some (Json.List l) ->
          List.map
            (fun m ->
              match (Json.member "name" m, Json.member "unit" m) with
              | Some (Json.String n), Some (Json.String u) -> (n, u)
              | _ -> failwith "BENCHMARK.json: metric without name or unit")
            l
      | _ -> failwith ("BENCHMARK.json: no " ^ family))

let names_units (r : Bench.result) = List.map (fun (n, u, _) -> (n, u)) r.metrics

let () =
  check "end-to-end table matches BENCHMARK.json" (declared "end_to_end" = Bench.end_to_end);
  check "per-layer table matches BENCHMARK.json" (declared "per_layer" = Bench.per_layer);
  List.iter
    (fun (w : Bench.workload) ->
      let r = Bench.untraced w Common.Tiny ~seed ~seconds:0. ~budget:60. in
      check (w.name ^ ": untraced run passes its gate") r.correct;
      check (w.name ^ ": prints every end-to-end metric") (names_units r = Bench.end_to_end);
      let t = Bench.traced w Common.Tiny ~seed ~out:"selftest-out" in
      check (w.name ^ ": traced run passes its gate") t.correct;
      check (w.name ^ ": prints every per-layer metric") (names_units t = Bench.per_layer);
      let json = Bench.json_of_result r in
      check (w.name ^ ": result line is JSON") (Result.is_ok (Json.of_string json));
      (* Two assembled repetitions and the library runner, same seed. *)
      let a1 = w.run Common.Tiny ~seed Common.Assembled in
      let a2 = w.run Common.Tiny ~seed Common.Assembled in
      check (w.name ^ ": same-seed runs agree, fingerprints included")
        (a1.pin = a2.pin && Bench.determinism [ a1; a2 ] = []);
      if w.library then begin
        let l = w.run Common.Tiny ~seed Common.Library in
        check (w.name ^ ": assembled run reproduces the library runner")
          (Bench.determinism [ a1; l ] = [])
      end)
    Bench.workloads;
  (* A client history claiming a write no replica ever committed. *)
  let corrupt = function
    | (w : Hovercraft_r2p2.R2p2.req_id) :: rest -> { w with id = w.id + 1_000_000_000 } :: w :: rest
    | [] -> []
  in
  let bad = Write_chaos.run_with ~corrupt Common.Tiny ~seed Common.Assembled in
  check "write-chaos: corrupted completed_writes fails the gate" (bad.violations <> []);
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
