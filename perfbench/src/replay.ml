(* The apply-path cost on its own: the operation stream a traced run
   generated, replayed through [Kvstore.execute] on a fresh store that
   first receives the run's preload. *)

module Op = Hovercraft_apps.Op
module Kvstore = Hovercraft_apps.Kvstore

(* The workload closure, timed per call and its operations recorded when
   [traced]; the second result returns the recorded stream in order. *)
let instrument ~traced base =
  let ops = ref [] in
  let workload =
    if traced then fun rng ->
      Probe.timed "apps.gen" (fun () ->
          let op = base rng in
          ops := op :: !ops;
          op)
    else base
  in
  (workload, fun () -> List.rev !ops)

let cmds ops = List.filter_map (function Op.Kv c -> Some c | _ -> None) ops

let kv_exec ~preload ops =
  let store = Kvstore.create () in
  List.iter (fun c -> ignore (Kvstore.execute store c)) (cmds preload);
  let stream = Array.of_list (cmds ops) in
  let t0 = Probe.now () in
  Array.iter (fun c -> ignore (Kvstore.execute store c)) stream;
  Probe.charge "apps.kv_exec" ~seconds:(Probe.now () -. t0) ~calls:(Array.length stream)
