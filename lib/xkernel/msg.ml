type t =
  | Empty
  | Leaf of { data : string; off : int; len : int }
  | Cat of { left : t; right : t; len : int }

let empty = Empty
let length = function Empty -> 0 | Leaf l -> l.len | Cat c -> c.len

let leaf data off len =
  if len = 0 then Empty else Leaf { data; off; len }

let of_string s = leaf s 0 (String.length s)

let fill n c =
  if n < 0 then invalid_arg "Msg.fill";
  if n = 0 then Empty
  else begin
    (* Share one modest chunk across the whole message so that large
       test payloads do not allocate their full size. *)
    let chunk_len = min n 4096 in
    let chunk = String.make chunk_len c in
    let rec build remaining =
      if remaining <= chunk_len then leaf chunk 0 remaining
      else
        let half = remaining / 2 in
        let left = build half and right = build (remaining - half) in
        Cat { left; right; len = remaining }
    in
    build n
  end

(* Two slices that lie side by side in one string join back into one
   leaf: a reassembly of fragments cut from one buffer, and the header
   drops that follow it, give a single leaf again instead of a spine. *)
let append a b =
  match (a, b) with
  | Empty, m | m, Empty -> m
  | Leaf x, Leaf y when x.data == y.data && x.off + x.len = y.off ->
      Leaf { data = x.data; off = x.off; len = x.len + y.len }
  | _ -> Cat { left = a; right = b; len = length a + length b }

(* Header push and drop are the per-layer hot path: every protocol
   prepends a small encoded header on send and strips it on receive.
   Small combined leaves are flattened instead of building a [Cat]
   spine, so a null call's message stays a single leaf through the
   whole stack and every header read finds its bytes in that leaf. *)
let small_leaf = 32

let push m h =
  let hl = String.length h in
  if hl = 0 then m
  else
    match m with
    | Empty -> Leaf { data = h; off = 0; len = hl }
    | Leaf l when hl + l.len <= small_leaf ->
        let b = Bytes.create (hl + l.len) in
        Bytes.blit_string h 0 b 0 hl;
        Bytes.blit_string l.data l.off b hl l.len;
        Leaf { data = Bytes.unsafe_to_string b; off = 0; len = hl + l.len }
    | _ -> Cat { left = Leaf { data = h; off = 0; len = hl }; right = m; len = hl + length m }

(* Fold over the leaf substrings of [m] in order. *)
let rec fold_leaves f acc = function
  | Empty -> acc
  | Leaf l -> f acc l.data l.off l.len
  | Cat c -> fold_leaves f (fold_leaves f acc c.left) c.right

let blit m b off =
  let copy pos data o len =
    Bytes.blit_string data o b pos len;
    pos + len
  in
  ignore (fold_leaves copy off m)

let to_string m =
  match m with
  | Empty -> ""
  | Leaf l ->
      if l.off = 0 && l.len = String.length l.data then l.data
      else String.sub l.data l.off l.len
  | Cat _ ->
      let b = Bytes.create (length m) in
      blit m b 0;
      Bytes.unsafe_to_string b

let rec byte_at m i =
  match m with
  | Empty -> assert false
  | Leaf l -> l.data.[l.off + i]
  | Cat c ->
      let ll = length c.left in
      if i < ll then byte_at c.left i else byte_at c.right (i - ll)

let get m i =
  if i < 0 || i >= length m then invalid_arg "Msg.get";
  byte_at m i

let rec take m n =
  if n <= 0 then Empty
  else
    match m with
    | Empty -> Empty
    | Leaf l -> if n >= l.len then m else leaf l.data l.off n
    | Cat c ->
        let ll = length c.left in
        if n <= ll then take c.left n
        else if n >= c.len then m
        else append c.left (take c.right (n - ll))

let rec drop_ m n =
  if n <= 0 then m
  else
    match m with
    | Empty -> Empty
    | Leaf l -> if n >= l.len then Empty else leaf l.data (l.off + n) (l.len - n)
    | Cat c ->
        let ll = length c.left in
        if n >= c.len then Empty
        else if n >= ll then drop_ c.right (n - ll)
        else append (drop_ c.left n) c.right

let split m n =
  if n < 0 || n > length m then invalid_arg "Msg.split";
  (take m n, drop_ m n)

(* Only the nodes of the slice are new: a subtree it covers whole is
   shared, and one it misses is not visited. *)
let rec sub_ m off len =
  if len = 0 then Empty
  else if off = 0 && len = length m then m
  else
    match m with
    | Empty -> Empty
    | Leaf l -> Leaf { data = l.data; off = l.off + off; len }
    | Cat c ->
        let ll = length c.left in
        if off + len <= ll then sub_ c.left off len
        else if off >= ll then sub_ c.right (off - ll) len
        else
          let k = ll - off in
          Cat { left = sub_ c.left off k; right = sub_ c.right 0 (len - k); len }

let sub m off len =
  if off < 0 || len < 0 || off + len > length m then invalid_arg "Msg.sub";
  sub_ m off len

let drop m n =
  if n < 0 || n > length m then invalid_arg "Msg.drop";
  drop_ m n

(* In-place big-endian reads.  A protocol reads its header where a
   [push] left it: in the first leaf, which is the message itself or
   the leftmost leaf of a [Cat] spine (a reassembled message's first
   fragment, say).  Only a read that straddles leaves goes byte by byte
   through [get], which also rejects out-of-range offsets. *)
let rec first_leaf = function Cat c -> first_leaf c.left | m -> m

let read m off n =
  match first_leaf m with
  | Leaf { data; off = base; len } when off >= 0 && off <= len - n ->
      let v = ref 0 in
      for i = base + off to base + off + n - 1 do
        v := (!v lsl 8) lor Char.code (String.unsafe_get data i)
      done;
      !v
  | _ ->
      let v = ref 0 in
      for i = off to off + n - 1 do
        v := (!v lsl 8) lor Char.code (get m i)
      done;
      !v

let u8 m off = read m off 1
let u16 m off = read m off 2
let u32 m off = read m off 4
let u48 m off = read m off 6

external get64u : string -> int -> int64 = "%caml_string_get64u"

(* [len] bytes of [a] from [i] against [b] from [j], eight at a time. *)
let rec bytes_equal a i b j len =
  if len >= 8 then
    get64u a i = get64u b j && bytes_equal a (i + 8) b (j + 8) (len - 8)
  else
    len = 0
    || String.unsafe_get a i = String.unsafe_get b j
       && bytes_equal a (i + 1) b (j + 1) (len - 1)

(* [range_equal m pos data off len]: bytes [pos, pos + len) of [m] are
   [data]'s bytes [off, off + len).  Descends to the leaves of [m] that
   hold the range and compares them in place. *)
let rec range_equal m pos data off len =
  len = 0
  ||
  match m with
  | Empty -> false
  | Leaf l -> bytes_equal l.data (l.off + pos) data off len
  | Cat c ->
      let ll = length c.left in
      if pos + len <= ll then range_equal c.left pos data off len
      else if pos >= ll then range_equal c.right (pos - ll) data off len
      else
        let k = ll - pos in
        range_equal c.left pos data off k
        && range_equal c.right 0 data (off + k) (len - k)

(* Each leaf of [a], at position [pos], against the same range of [b]. *)
let rec leaves_equal a pos b =
  match a with
  | Empty -> true
  | Leaf l -> range_equal b pos l.data l.off l.len
  | Cat c ->
      leaves_equal c.left pos b
      && leaves_equal c.right (pos + length c.left) b

let equal a b = length a = length b && leaves_equal a 0 b

(* The sum runs over 16-bit big-endian words of the whole message, so a
   leaf that ends on an odd byte leaves its high half in [hi] for the
   next leaf's first byte to complete. *)
let ones_complement_sum ?(init = 0) m =
  let sum = ref init and hi = ref (-1) in
  let add () data off len =
    for i = off to off + len - 1 do
      let b = Char.code (String.unsafe_get data i) in
      if !hi < 0 then hi := b
      else begin
        sum := !sum + ((!hi lsl 8) lor b);
        hi := -1
      end
    done
  in
  fold_leaves add () m;
  if !hi >= 0 then sum := !sum + (!hi lsl 8);
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xffff) + (!sum lsr 16)
  done;
  !sum

let map_byte i f m =
  if i < 0 || i >= length m then invalid_arg "Msg.map_byte";
  let before, rest = split m i in
  let after = drop_ rest 1 in
  append before (append (of_string (String.make 1 (f (get m i)))) after)

let pp fmt m =
  let s = to_string m in
  let prefix_len = min 16 (String.length s) in
  let hex = Buffer.create (prefix_len * 2) in
  String.iter
    (fun c -> Buffer.add_string hex (Printf.sprintf "%02x" (Char.code c)))
    (String.sub s 0 prefix_len);
  Format.fprintf fmt "<msg len=%d %s%s>" (length m) (Buffer.contents hex)
    (if String.length s > prefix_len then "..." else "")
