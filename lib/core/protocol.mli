(** HovercRaft wire protocol: what travels over the fabric.

    The replicated command ([cmd]) pairs the R2P2 ordering metadata with the
    request body. VanillaRaft ships the body inside append_entries;
    HovercRaft ships metadata only and lets followers bind bodies from
    their unordered sets — the simulator reflects this in both the byte
    accounting ({!ae_bytes}) and the node logic (followers in HovercRaft
    mode never read [body] out of an append_entries). *)

open Hovercraft_r2p2

type meta = {
  rid : R2p2.req_id;  (** The unique R2P2 identity triple. *)
  read_only : bool;
  mutable replier : int;
      (** Designated replier node id; -1 until the leader assigns it,
          immutable afterwards (§3.3). *)
  body_hash : int;  (** Guards against metadata collisions (§5). *)
  internal : bool;  (** Leader no-op entries: no client, no multicast body. *)
}

type cmd = {
  meta : meta;
  body : Hovercraft_apps.Op.t;
  config : Hovercraft_raft.Types.node_id array option;
      (** [Some members] marks a membership-change entry (Raft §4): the
          full new member list, interpreted by the consensus layer. *)
}

val client_cmd : rid:R2p2.req_id -> Hovercraft_apps.Op.t -> cmd
val internal_noop : cmd

val config_cmd : members:Hovercraft_raft.Types.node_id array -> cmd
(** An internal membership-change command carrying the new member list. *)

type snap = {
  s_app : Hovercraft_apps.Op.image;
      (** Deep-copied application state at the checkpoint index. *)
  s_completions : Completions.record Hovercraft_sim.Fifo.t;
      (** Exactly-once completion records covering the checkpoint, oldest
          first: without them, a retransmission of an already-applied
          request would re-execute on a freshly installed replica. The
          queue is persistent, so the cut shares the live node's queue
          and later records or expiries on that node never reach it. *)
  s_preloaded : int;
      (** How many of the image's executed operations were preloaded
          outside consensus (dataset population). Part of the durable
          applied-prefix state: the history checker subtracts it from the
          raw execution counter, so a replica that installs the image
          must inherit it or the exactly-once arithmetic skews. *)
}
(** What a snapshot carries besides the consensus metadata: this is the
    ['snap] instantiation the whole core layer uses. *)

val snap_bytes : snap -> int
(** Estimated serialized size — what chunked transfer divides up. *)

(** Everything a fabric packet can carry. *)
type payload =
  | Request of { rid : R2p2.req_id; policy : R2p2.policy; op : Hovercraft_apps.Op.t }
  | Response of { rid : R2p2.req_id }
  | Raft of (cmd, snap) Hovercraft_raft.Types.message
  | Recovery_request of { rid : R2p2.req_id; asker : int }
  | Recovery_response of { rid : R2p2.req_id; op : Hovercraft_apps.Op.t }
  | Probe of { term : int; leader : int }
      (** New leader -> aggregator liveness check (§5). *)
  | Probe_reply of { term : int }
  | Agg_commit of { term : int; commit : int; applied : int array }
      (** Aggregator -> group: commit index plus per-node completed
          counts for the leader's load balancing (§4). *)
  | Feedback of { rid : R2p2.req_id }
  | Nack of { rid : R2p2.req_id }
  | Wrong_shard of { rid : R2p2.req_id; version : int }
      (** Shard-routing NACK: the receiving group does not own the
          request's key under the responder's shard-map [version]; the
          client should refresh its map and re-route (unlike the
          flow-control [Nack], which means back off). *)
  | Reconfig of { term : int; members : int array }
      (** Leader -> aggregator: membership changed; flush soft state,
          resize the quorum, rebuild the followers fan-out group. *)
  | Rabia of (cmd, snap) Hovercraft_ordering.Rabia.msg
      (** Leaderless randomized-agreement traffic (the rabia ordering
          backend). Batch values on the wire are metadata-sized, like
          HovercRaft append_entries — bodies ride the client multicast. *)

val meta_wire_bytes : int
(** Fixed size of one entry's ordering metadata inside append_entries. *)

val ae_bytes : with_bodies:bool -> cmd Hovercraft_raft.Types.entry array -> int
(** Payload bytes of an append_entries with the given entries; when
    [with_bodies] (VanillaRaft) each entry additionally pays its request
    body. *)

val payload_bytes : with_bodies:bool -> payload -> int
(** Bytes of any payload; [with_bodies] selects the append_entries
    encoding. *)

val describe : payload -> string
(** Short tag for logging/debug counters. *)

(** {1 Interned payload tags}

    The receive path accounts every packet under an ["rx." ^ tag]
    counter; resolving that name per packet means a string allocation
    plus a hashtable probe on the hottest path in the simulator. These
    accessors let a component pre-resolve one counter per tag at
    creation time and index the array by {!tag_index} — no allocation
    per packet. *)

val tag_count : int
(** Number of distinct payload tags; valid indices are
    [0 .. tag_count - 1]. *)

val tag_index : payload -> int
(** Dense, allocation-free index of the payload's tag; agrees with
    {!describe} via [tag_name (tag_index p) == describe p]. *)

val tag_name : int -> string
(** The tag at an index (same strings {!describe} returns). *)
