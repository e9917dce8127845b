(** Persistent FIFO queue: the classic two-list (front, rear) queue with
    an O(1) length.

    Values are immutable, so a queue can be captured by reference and
    shared: whatever the holder does to its own copy afterwards never
    shows through an earlier capture. *)

type 'a t

val empty : 'a t

val push : 'a -> 'a t -> 'a t
(** Append at the back. O(1). *)

val length : 'a t -> int
(** O(1). *)

val drop_while : ('a -> bool) -> ('a -> unit) -> 'a t -> 'a t
(** [drop_while p f q] pops from the front while the oldest element
    satisfies [p], calling [f] on each one popped. Amortised O(1) per
    element: the back is reversed into the front only when the front
    runs dry, and the result keeps that work, so a holder that stores it
    back pays for each reversal once. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Oldest first. *)

val to_list : 'a t -> 'a list
(** Oldest first. *)
