(* perfbench: one workload, one seed, one run.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints a line per repetition (its determinism pin), then, as the last
   line, one JSON object: the end-to-end metrics (--trace 0) or the
   per-layer metrics (--trace 1). The traced run writes its spans under
   perfbench-out/. A failed correctness or determinism check prints the
   reasons to stderr instead and exits 1. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measure for at least S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> w.Bench.name = !workload) Bench.workloads with
  | None ->
      prerr_endline
        ("unknown workload; one of: "
        ^ String.concat ", " (List.map (fun w -> w.Bench.name) Bench.workloads));
      exit 2
  | Some w ->
      Printf.printf "%s seed=%d trace=%d\n%!" w.name !seed !trace;
      let r =
        if !trace = 1 then Bench.traced w Common.Full ~seed:!seed ~out:"perfbench-out"
        else Bench.untraced w Common.Full ~seed:!seed ~seconds:!seconds ~budget:120.
      in
      if not r.correct then begin
        List.iter (fun p -> prerr_endline ("FAIL: " ^ p)) r.problems;
        exit 1
      end;
      print_endline (Bench.json_of_result r)
