(* The active map keeps each session as the [Some] [resolve] returns,
   made once at bind, so a hit on every arriving message allocates
   nothing.  In front of it, [find] keeps a direct-mapped cache of
   bound sessions by the two ints the key is built from, so a hit there
   builds no key either.  The cache only ever holds a [Some] the active
   map holds under [key a b], and [unbind], the only way a binding
   leaves the map, empties it; so a cache hit returns what [resolve]
   would.  The active map itself is untouched by the cache: its bucket
   order, which [iter] and [fold] follow, depends only on the bind and
   unbind sequence. *)
let cache_slots = 16

type ('p, 'k, 's) t = {
  active : ('k, 's option) Hashtbl.t;
  passive : (int, Proto.t) Hashtbl.t;
  make : 'p -> upper:Proto.t -> 'k -> 's;
  cached_a : int array;
  cached_b : int array;
  cached : 's option array; (* [None]: an empty slot *)
}

let create n ~make =
  {
    active = Hashtbl.create n;
    passive = Hashtbl.create 8;
    make;
    cached_a = Array.make cache_slots 0;
    cached_b = Array.make cache_slots 0;
    cached = Array.make cache_slots None;
  }

let enable d key upper = Hashtbl.replace d.passive key upper

let bind_new d p ~upper k =
  let bound = Some (d.make p ~upper k) in
  Hashtbl.replace d.active k bound;
  bound

let open_ d p ~upper k =
  match Hashtbl.find d.active k with
  | bound -> Option.get bound
  | exception Not_found -> Option.get (bind_new d p ~upper k)

let resolve d p k key =
  match Hashtbl.find d.active k with
  | bound -> bound
  | exception Not_found -> (
      match Hashtbl.find_opt d.passive key with
      | Some upper -> bind_new d p ~upper k
      | None -> None)

(* Mix both halves into a slot: peers differ in their low address bits,
   sessions of one peer in the protocol number or channel. *)
let slot a b =
  (((a * 0x9e3779b1) + b) * 0x85ebca6b) lsr 16 land (cache_slots - 1)

let find d p ~key a b enable_key =
  let i = slot a b in
  let hit = d.cached.(i) in
  if hit != None && d.cached_a.(i) = a && d.cached_b.(i) = b then hit
  else
    let bound = resolve d p (key a b) enable_key in
    if bound != None then begin
      d.cached_a.(i) <- a;
      d.cached_b.(i) <- b;
      d.cached.(i) <- bound
    end;
    bound

let unbind d k =
  Hashtbl.remove d.active k;
  Array.fill d.cached 0 cache_slots None

let iter f d = Hashtbl.iter (fun _ bound -> f (Option.get bound)) d.active

let fold f d acc =
  Hashtbl.fold (fun _ bound acc -> f (Option.get bound) acc) d.active acc
