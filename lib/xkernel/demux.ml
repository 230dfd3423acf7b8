(* The active map keeps each session as the [Some] [resolve] returns,
   made once at bind, so a hit on every arriving message allocates
   nothing. *)
type ('p, 'k, 's) t = {
  active : ('k, 's option) Hashtbl.t;
  passive : (int, Proto.t) Hashtbl.t;
  make : 'p -> upper:Proto.t -> 'k -> 's;
}

let create n ~make =
  { active = Hashtbl.create n; passive = Hashtbl.create 8; make }

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

let unbind d k = Hashtbl.remove d.active k
let iter f d = Hashtbl.iter (fun _ bound -> f (Option.get bound)) d.active

let fold f d acc =
  Hashtbl.fold (fun _ bound acc -> f (Option.get bound) acc) d.active acc
