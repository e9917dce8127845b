open Hovercraft_sim
open Hovercraft_r2p2

type record = R2p2.req_id * Hovercraft_apps.Op.result * Timebase.t

module Tbl = Hashtbl.Make (struct
  type t = R2p2.req_id

  let equal = R2p2.req_id_equal
  let hash = R2p2.req_id_hash
end)

type t = { table : record Tbl.t; mutable q : record Fifo.t }

let create () = { table = Tbl.create 1024; q = Fifo.empty }
let mem t rid = Tbl.mem t.table rid

let find t rid =
  match Tbl.find_opt t.table rid with Some (_, r, _) -> Some r | None -> None

let record t ((rid, _, _) as c) =
  if not (Tbl.mem t.table rid) then begin
    Tbl.replace t.table rid c;
    t.q <- Fifo.push c t.q
  end

let cut t = t.q

let expire t ~now ~window =
  t.q <-
    Fifo.drop_while
      (fun (_, _, at) -> now - at > window)
      (fun (rid, _, _) -> Tbl.remove t.table rid)
      t.q

let install t q =
  Tbl.reset t.table;
  Fifo.iter (fun ((rid, _, _) as c) -> Tbl.replace t.table rid c) q;
  t.q <- q

let to_list t = Fifo.to_list t.q
