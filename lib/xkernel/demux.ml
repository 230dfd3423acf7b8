type ('p, 'k, 's) t = {
  active : ('k, 's) Hashtbl.t;
  passive : (int, Proto.t) Hashtbl.t;
  make : 'p -> upper:Proto.t -> 'k -> 's;
}

let create n ~make =
  { active = Hashtbl.create n; passive = Hashtbl.create 8; make }

let enable d key upper = Hashtbl.replace d.passive key upper

let bind_new d p ~upper k =
  let s = d.make p ~upper k in
  Hashtbl.replace d.active k s;
  s

let open_ d p ~upper k =
  match Hashtbl.find_opt d.active k with
  | Some s -> s
  | None -> bind_new d p ~upper k

let resolve d p k key =
  match Hashtbl.find_opt d.active k with
  | Some _ as bound -> bound
  | None -> (
      match Hashtbl.find_opt d.passive key with
      | Some upper -> Some (bind_new d p ~upper k)
      | None -> None)

let unbind d k = Hashtbl.remove d.active k
let iter f d = Hashtbl.iter (fun _ s -> f s) d.active
let fold f d acc = Hashtbl.fold (fun _ s acc -> f s acc) d.active acc
