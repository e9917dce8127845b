open Hovercraft_sim
open Hovercraft_r2p2

(* Every slot sits on exactly one intrusive, circular, doubly-linked list
   with a sentinel: [fresh_list] (unordered), [ordered_list], or
   [pinned_list] (unordered, expired, held by [gc ?keep]). Stamping —
   [add], a refreshing re-[add], [mark_ordered] — sets [added] to the
   current time and moves the slot to the tail of its class list. The
   clock is monotone, so each class list stays sorted by [added] and [gc]
   only visits expired heads, plus the pinned list. *)
type slot = {
  rid : R2p2.req_id;
  op : Hovercraft_apps.Op.t;
  mutable added : Timebase.t;
  mutable ordered : bool;
  seq : int;  (* arrival order, for deterministic leader ingestion *)
  mutable prev : slot;
  mutable next : slot;
}

module Tbl = Hashtbl.Make (struct
  type t = R2p2.req_id

  let equal = R2p2.req_id_equal
  let hash = R2p2.req_id_hash
end)

type t = {
  now : unit -> Timebase.t;
  gc_unordered : Timebase.t;
  gc_ordered : Timebase.t;
  table : slot Tbl.t;
  mutable seq : int;
  fresh_list : slot;
  ordered_list : slot;
  pinned_list : slot;
}

let sentinel () =
  let rec s =
    {
      rid = { R2p2.id = -1; src_addr = Hovercraft_net.Addr.Netagg; src_port = -1 };
      op = Hovercraft_apps.Op.Nop;
      added = 0;
      ordered = false;
      seq = 0;
      prev = s;
      next = s;
    }
  in
  s

let unlink s =
  s.prev.next <- s.next;
  s.next.prev <- s.prev

let append list s =
  s.prev <- list.prev;
  s.next <- list;
  list.prev.next <- s;
  list.prev <- s

let create ~now ~gc_unordered ~gc_ordered () =
  {
    now;
    gc_unordered;
    gc_ordered;
    table = Tbl.create 4096;
    seq = 0;
    fresh_list = sentinel ();
    ordered_list = sentinel ();
    pinned_list = sentinel ();
  }

let stamp t s =
  s.added <- t.now ();
  unlink s;
  append (if s.ordered then t.ordered_list else t.fresh_list) s

let add t rid op =
  match Tbl.find_opt t.table rid with
  | Some slot -> stamp t slot
  | None ->
      t.seq <- t.seq + 1;
      (* Not [let rec]: a recursive record is allocated twice. [append]
         overwrites both links. *)
      let s =
        {
          rid;
          op;
          added = t.now ();
          ordered = false;
          seq = t.seq;
          prev = t.fresh_list;
          next = t.fresh_list;
        }
      in
      Tbl.replace t.table rid s;
      append t.fresh_list s

let find t rid =
  match Tbl.find_opt t.table rid with None -> None | Some s -> Some s.op

let status t rid =
  match Tbl.find_opt t.table rid with
  | None -> `Absent
  | Some s -> if s.ordered then `Ordered else `Unordered

let mark_ordered t rid =
  match Tbl.find_opt t.table rid with
  | None -> false
  | Some s ->
      s.ordered <- true;
      stamp t s;
      true

let remove t rid =
  match Tbl.find_opt t.table rid with
  | None -> ()
  | Some s ->
      unlink s;
      Tbl.remove t.table rid

let unordered_bindings t =
  Tbl.fold (fun rid s acc -> if s.ordered then acc else (rid, s) :: acc) t.table []
  |> List.sort (fun (_, (a : slot)) (_, (b : slot)) -> compare a.seq b.seq)
  |> List.map (fun (rid, s) -> (rid, s.op))

(* The order of removals is unobservable: removing a binding never
   resizes the table or reorders the others. *)
let gc ?(keep = fun _ -> false) t =
  let now = t.now () in
  let dropped = ref 0 in
  let drop s =
    unlink s;
    Tbl.remove t.table s.rid;
    incr dropped
  in
  let rec recheck s =
    if s != t.pinned_list then begin
      let next = s.next in
      if not (keep s.rid) then drop s;
      recheck next
    end
  in
  recheck t.pinned_list.next;
  let rec expire list limit ~pin =
    let s = list.next in
    if s != list && now - s.added > limit then begin
      if pin && keep s.rid then begin
        unlink s;
        append t.pinned_list s
      end
      else drop s;
      expire list limit ~pin
    end
  in
  expire t.fresh_list t.gc_unordered ~pin:true;
  expire t.ordered_list t.gc_ordered ~pin:false;
  !dropped

let size t = Tbl.length t.table

let unordered_count t =
  Tbl.fold (fun _ s acc -> if s.ordered then acc else acc + 1) t.table 0
