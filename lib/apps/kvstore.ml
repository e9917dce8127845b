type record = (string * string) list

type value =
  | Str of string
  | List of string list * string list * int
      (* Amortized deque: front (in order), back (reversed), length. *)
  | Hash of (string, string) Hashtbl.t
  | Set of (string, unit) Hashtbl.t
  | Thread of record array ref * int ref
      (* Conversation posts, most recent last; (storage, used). *)

type t = { table : (string, value) Hashtbl.t }

type cmd =
  | Nop
  | Get of string
  | Put of string * string
  | Del of string
  | Lpush of string * string
  | Rpush of string * string
  | Lrange of string * int * int
  | Llen of string
  | Hset of string * string * string
  | Hget of string * string
  | Hgetall of string
  | Sadd of string * string
  | Srem of string * string
  | Sismember of string * string
  | Scard of string
  | Insert of { thread : string; record : record }
  | Scan of { thread : string; limit : int }

type reply =
  | Ok
  | Value of string option
  | Values of string list
  | Records of record list
  | Count of int
  | Wrong_type

let create () = { table = Hashtbl.create 4096 }

let list_elems front back = front @ List.rev back

let lrange elems len start stop =
  (* Redis semantics: negative indices count from the end; out-of-range
     bounds are clamped; inverted ranges are empty. *)
  let norm i = if i < 0 then len + i else i in
  let start = max 0 (norm start) and stop = min (len - 1) (norm stop) in
  if start > stop then []
  else
    elems
    |> List.filteri (fun i _ -> i >= start && i <= stop)

let execute t cmd =
  let tbl = t.table in
  match cmd with
  | Nop -> Ok
  | Get k -> (
      match Hashtbl.find_opt tbl k with
      | None -> Value None
      | Some (Str s) -> Value (Some s)
      | Some _ -> Wrong_type)
  | Put (k, v) ->
      Hashtbl.replace tbl k (Str v);
      Ok
  | Del k ->
      let existed = Hashtbl.mem tbl k in
      Hashtbl.remove tbl k;
      Count (if existed then 1 else 0)
  | Lpush (k, v) -> (
      match Hashtbl.find_opt tbl k with
      | None ->
          Hashtbl.replace tbl k (List ([ v ], [], 1));
          Count 1
      | Some (List (f, b, n)) ->
          Hashtbl.replace tbl k (List (v :: f, b, n + 1));
          Count (n + 1)
      | Some _ -> Wrong_type)
  | Rpush (k, v) -> (
      match Hashtbl.find_opt tbl k with
      | None ->
          Hashtbl.replace tbl k (List ([], [ v ], 1));
          Count 1
      | Some (List (f, b, n)) ->
          Hashtbl.replace tbl k (List (f, v :: b, n + 1));
          Count (n + 1)
      | Some _ -> Wrong_type)
  | Lrange (k, start, stop) -> (
      match Hashtbl.find_opt tbl k with
      | None -> Values []
      | Some (List (f, b, n)) -> Values (lrange (list_elems f b) n start stop)
      | Some _ -> Wrong_type)
  | Llen k -> (
      match Hashtbl.find_opt tbl k with
      | None -> Count 0
      | Some (List (_, _, n)) -> Count n
      | Some _ -> Wrong_type)
  | Hset (k, f, v) -> (
      match Hashtbl.find_opt tbl k with
      | None ->
          let h = Hashtbl.create 8 in
          Hashtbl.replace h f v;
          Hashtbl.replace tbl k (Hash h);
          Count 1
      | Some (Hash h) ->
          let fresh = not (Hashtbl.mem h f) in
          Hashtbl.replace h f v;
          Count (if fresh then 1 else 0)
      | Some _ -> Wrong_type)
  | Hget (k, f) -> (
      match Hashtbl.find_opt tbl k with
      | None -> Value None
      | Some (Hash h) -> Value (Hashtbl.find_opt h f)
      | Some _ -> Wrong_type)
  | Hgetall k -> (
      match Hashtbl.find_opt tbl k with
      | None -> Values []
      | Some (Hash h) ->
          let pairs = Hashtbl.fold (fun f v acc -> (f, v) :: acc) h [] in
          let pairs = List.sort compare pairs in
          Values (List.concat_map (fun (f, v) -> [ f; v ]) pairs)
      | Some _ -> Wrong_type)
  | Sadd (k, m) -> (
      match Hashtbl.find_opt tbl k with
      | None ->
          let s = Hashtbl.create 8 in
          Hashtbl.replace s m ();
          Hashtbl.replace tbl k (Set s);
          Count 1
      | Some (Set s) ->
          let fresh = not (Hashtbl.mem s m) in
          Hashtbl.replace s m ();
          Count (if fresh then 1 else 0)
      | Some _ -> Wrong_type)
  | Srem (k, m) -> (
      match Hashtbl.find_opt tbl k with
      | None -> Count 0
      | Some (Set s) ->
          let existed = Hashtbl.mem s m in
          Hashtbl.remove s m;
          Count (if existed then 1 else 0)
      | Some _ -> Wrong_type)
  | Sismember (k, m) -> (
      match Hashtbl.find_opt tbl k with
      | None -> Count 0
      | Some (Set s) -> Count (if Hashtbl.mem s m then 1 else 0)
      | Some _ -> Wrong_type)
  | Scard k -> (
      match Hashtbl.find_opt tbl k with
      | None -> Count 0
      | Some (Set s) -> Count (Hashtbl.length s)
      | Some _ -> Wrong_type)
  | Insert { thread; record } -> (
      match Hashtbl.find_opt tbl thread with
      | None ->
          let store = ref (Array.make 8 record) and used = ref 1 in
          Hashtbl.replace tbl thread (Thread (store, used));
          Ok
      | Some (Thread (store, used)) ->
          if !used = Array.length !store then begin
            let bigger = Array.make (2 * !used) record in
            Array.blit !store 0 bigger 0 !used;
            store := bigger
          end;
          !store.(!used) <- record;
          incr used;
          Ok
      | Some _ -> Wrong_type)
  | Scan { thread; limit } -> (
      match Hashtbl.find_opt tbl thread with
      | None -> Records []
      | Some (Thread (store, used)) ->
          let n = min (max limit 0) !used in
          let out = ref [] in
          (* Most recent first, as a conversation view would show. *)
          for i = !used - n to !used - 1 do
            out := !store.(i) :: !out
          done;
          Records !out
      | Some _ -> Wrong_type)

let key_of = function
  | Nop -> None
  | Get k | Put (k, _) | Del k | Lpush (k, _) | Rpush (k, _)
  | Lrange (k, _, _) | Llen k | Hset (k, _, _) | Hget (k, _) | Hgetall k
  | Sadd (k, _) | Srem (k, _) | Sismember (k, _) | Scard k ->
      Some k
  | Insert { thread; _ } | Scan { thread; _ } -> Some thread

(* FNV-1a over the key bytes, folded modulo the slot count. The shard map
   partitions on this: it must be a stable function of the key string
   alone (Hashtbl.hash would tie the partitioning to the runtime's
   internal hashing), and it must spread YCSB's "userNNNNNNNN" keys
   evenly — the distribution test holds it to ±20% of uniform. *)
let slot_of_key ~slots key =
  if slots <= 0 then invalid_arg "Kvstore.slot_of_key: slots must be positive";
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193)
    key;
  (!h land max_int) mod slots

let is_read_only = function
  | Nop | Get _ | Lrange _ | Llen _ | Hget _ | Hgetall _ | Sismember _
  | Scard _ | Scan _ ->
      true
  | Put _ | Del _ | Lpush _ | Rpush _ | Hset _ | Sadd _ | Srem _ | Insert _ ->
      false

let keys t = Hashtbl.length t.table

let fingerprint t =
  let digest_value = function
    | Str s -> Hashtbl.hash ("s", s)
    | List (f, b, n) -> Hashtbl.hash ("l", list_elems f b, n)
    | Hash h ->
        Hashtbl.fold (fun f v acc -> acc lxor Hashtbl.hash ("h", f, v)) h 0
    | Set s -> Hashtbl.fold (fun m () acc -> acc lxor Hashtbl.hash ("e", m)) s 0
    | Thread (store, used) ->
        let acc = ref (Hashtbl.hash ("t", !used)) in
        for i = 0 to !used - 1 do
          acc := (!acc * 31) lxor Hashtbl.hash !store.(i)
        done;
        !acc
  in
  Hashtbl.fold
    (fun k v acc -> acc lxor Hashtbl.hash (k, digest_value v))
    t.table 0

(* --- snapshots ---

   An image is a detached deep copy: the mutable structures (hashes,
   sets, thread arrays) are copied both when the image is cut and when it
   is installed, so snapshots never alias live store state and one image
   can be installed on many replicas. Keys are sorted so identical stores
   produce structurally equal images. *)

type image = (string * value) list

let copy_value = function
  | (Str _ | List _) as v -> v (* immutable payloads *)
  | Hash h -> Hash (Hashtbl.copy h)
  | Set s -> Set (Hashtbl.copy s)
  | Thread (store, used) -> Thread (ref (Array.copy !store), ref !used)

let snapshot t =
  Hashtbl.fold (fun k v acc -> (k, copy_value v) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let install t img =
  Hashtbl.reset t.table;
  List.iter (fun (k, v) -> Hashtbl.replace t.table k (copy_value v)) img

(* Sub-range images, for shard migration: [extract] cuts a deep copy of
   just the keys a predicate keeps, [merge] unions an image into a live
   store (per-key replace, no reset), and [prune] drops the keys a
   predicate rejects. All three keep the deep-copy discipline of
   [snapshot]/[install] so images never alias live state. *)

let extract t ~keep =
  Hashtbl.fold
    (fun k v acc -> if keep k then (k, copy_value v) :: acc else acc)
    t.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let merge t img =
  List.iter (fun (k, v) -> Hashtbl.replace t.table k (copy_value v)) img

let prune t ~keep =
  let doomed =
    Hashtbl.fold (fun k _ acc -> if keep k then acc else k :: acc) t.table []
  in
  List.iter (Hashtbl.remove t.table) doomed;
  List.length doomed

(* --- sizing --- *)

let record_bytes r =
  List.fold_left (fun acc (f, v) -> acc + String.length f + String.length v) 0 r

let value_bytes = function
  | Str s -> 16 + String.length s
  | List (f, b, _) ->
      List.fold_left
        (fun acc s -> acc + 4 + String.length s)
        16 (List.rev_append b f)
  | Hash h ->
      Hashtbl.fold
        (fun f v acc -> acc + 8 + String.length f + String.length v)
        h 16
  | Set s -> Hashtbl.fold (fun m () acc -> acc + 4 + String.length m) s 16
  | Thread (store, used) ->
      let acc = ref 16 in
      for i = 0 to !used - 1 do
        acc := !acc + 16 + record_bytes !store.(i)
      done;
      !acc

let image_bytes img =
  List.fold_left
    (fun acc (k, v) -> acc + 8 + String.length k + value_bytes v)
    16 img

let cmd_bytes = function
  | Nop -> 8
  | Get k | Del k | Llen k | Hgetall k | Scard k -> 8 + String.length k
  | Put (k, v) | Lpush (k, v) | Rpush (k, v) ->
      8 + String.length k + String.length v
  | Lrange (k, _, _) -> 16 + String.length k
  | Hset (k, f, v) -> 8 + String.length k + String.length f + String.length v
  | Hget (k, f) | Sismember (k, f) | Sadd (k, f) | Srem (k, f) ->
      8 + String.length k + String.length f
  | Insert { thread; record } -> 8 + String.length thread + record_bytes record
  | Scan { thread; _ } -> 16 + String.length thread

let reply_bytes = function
  | Ok | Wrong_type -> 8
  | Count _ -> 16
  | Value None -> 8
  | Value (Some s) -> 8 + String.length s
  | Values vs -> List.fold_left (fun acc v -> acc + 4 + String.length v) 8 vs
  | Records rs -> List.fold_left (fun acc r -> acc + 16 + record_bytes r) 8 rs

(* --- cost model ---

   Calibrated against §7.5 with two anchors. (1) The unreplicated server
   peaks near 35 kRPS on YCSB-E (95% SCAN of <=10 x 1kB records, 5%
   INSERT), i.e. a ~28.5us mean per operation. (2) The paper reports the
   7-node speedup of 4x as "consistent with the upper bound predicted by
   Amdahl's law given the relative cost of SCAN and INSERT" — since
   INSERTs execute on every replica while SCANs run only on the replier,
   speedup(N) = mean / (p_i*c_i + p_s*c_s/N); hitting 4x at N = 7 with the
   35 kRPS anchor requires INSERT (a 1 kB record posted through the module
   API) to cost several times a SCAN. Solving both anchors gives roughly
   c_s ~ 21us and c_i ~ 55us once reply-transmission CPU is included. *)

let scan_base_ns = 5_000
let scan_per_record_ns = 1_550
let insert_ns = 55_000
let point_ns = 1_000
let write_ns = 1_500

let cost_ns cmd reply =
  match (cmd, reply) with
  | Nop, _ -> 100
  | Scan _, Records rs -> scan_base_ns + (scan_per_record_ns * List.length rs)
  | Scan _, _ -> scan_base_ns
  | Insert _, _ -> insert_ns
  | (Get _ | Llen _ | Hget _ | Sismember _ | Scard _), _ -> point_ns
  | (Lrange _ | Hgetall _), Values vs -> point_ns + (250 * List.length vs)
  | (Lrange _ | Hgetall _), _ -> point_ns
  | (Put _ | Del _ | Lpush _ | Rpush _ | Hset _ | Sadd _ | Srem _), _ ->
      write_ns
