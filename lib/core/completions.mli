(** RIFL-style exactly-once completion records of one replica.

    Built deterministically during apply on every replica: a
    retransmission of a request that already executed is answered from
    its record instead of re-executing. Records ride every checkpoint
    and expire, oldest first, once they are older than the body
    retention window.

    The records are kept twice: in a table for lookups and in a
    persistent FIFO in insertion (= expiry) order. Recording is one
    table insert and one O(1) push; a checkpoint cut shares the FIFO as it
    stands in O(1), and later records or expiries on the live set never
    show through a cut. *)

open Hovercraft_sim
open Hovercraft_r2p2

type record = R2p2.req_id * Hovercraft_apps.Op.result * Timebase.t
(** (rid, result, recorded-at). *)

type t

val create : unit -> t
val mem : t -> R2p2.req_id -> bool
val find : t -> R2p2.req_id -> Hovercraft_apps.Op.result option

val record : t -> record -> unit
(** Add a record at the back of the FIFO; a no-op when the rid already
    has one (the first record wins). *)

val expire : t -> now:Timebase.t -> window:Timebase.t -> unit
(** Retire records from the front of the FIFO while they are older than
    [window] ([now - at > window]); stops at the first younger one. *)

val cut : t -> record Fifo.t
(** The live records, oldest first. O(1): the queue is shared. *)

val install : t -> record Fifo.t -> unit
(** Replace every record with a cut's, keeping its FIFO order. *)

val to_list : t -> record list
(** Oldest first. *)
