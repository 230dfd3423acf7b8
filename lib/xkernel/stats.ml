(* Counters are interned: a [counter] handle is the table entry itself,
   so hot paths resolve the string name once (at protocol-open time)
   and each event costs one unboxed increment instead of a string hash
   and bucket walk.  [live] records whether the counter has ever been
   touched through the public API — dumps filter on it, so a
   pre-resolved but never-used handle stays invisible exactly like a
   key that was never added to the old string-keyed table. *)

type counter = { mutable v : int; mutable live : bool }
type t = { tbl : (string, counter) Hashtbl.t; s_name : string option }

(* Named tables, in creation order.  A plain list: benches create many
   worlds per process, so duplicate names are expected and kept.  The
   index maps each name to its first registration, giving [find] an
   O(1) lookup with the same first-registered-wins answer as folding
   over the list. *)
let registry : t list ref = ref []
let index : (string, t) Hashtbl.t = Hashtbl.create 64

let create ?name () =
  let t = { tbl = Hashtbl.create 16; s_name = name } in
  (match name with
  | Some n ->
      registry := t :: !registry;
      if not (Hashtbl.mem index n) then Hashtbl.add index n t
  | None -> ());
  t


let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some c -> c
  | None ->
      let c = { v = 0; live = false } in
      Hashtbl.add t.tbl name c;
      c

let tick c =
  c.v <- c.v + 1;
  c.live <- true

let bump c n =
  c.v <- c.v + n;
  c.live <- true

let store c v =
  c.v <- v;
  c.live <- true

let value c = c.v

let incr t name = tick (counter t name)
let set t name v = store (counter t name) v

let get t name =
  match Hashtbl.find_opt t.tbl name with Some c -> c.v | None -> 0

(* Zero in place rather than emptying the table: outstanding handles
   must keep pointing at the live entries. *)
let reset t =
  Hashtbl.iter
    (fun _ c ->
      c.v <- 0;
      c.live <- false)
    t.tbl

let to_list t =
  Hashtbl.fold (fun k c acc -> if c.live then (k, c.v) :: acc else acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let registered () =
  List.rev_map (fun t -> (Option.get t.s_name, t)) !registry

let find name = Hashtbl.find_opt index name

let reset_registry () =
  registry := [];
  Hashtbl.reset index

let dump () = List.map (fun (n, t) -> (n, to_list t)) (registered ())

let json () =
  Json.Arr
    (List.map
       (fun (n, t) ->
         Json.Obj
           [
             ("name", Json.Str n);
             ( "counters",
               Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (to_list t))
             );
           ])
       (registered ()))

let control t = function
  | Control.Get_stat name -> Control.R_int (get t name)
  | Control.Flush_cache ->
      reset t;
      Control.R_unit
  | _ -> Control.Unsupported
