type t = {
  p_name : string;
  p_host : Host.t;
  virtual_ : bool;
  mutable p_below : t list;
  mutable p_ops : ops option;
  mutable p_sessions : int; (* sessions made so far: the last id issued *)
  p_stats : Stats.t;
  (* Per-event accounting, pre-resolved once at create time so a layer
     crossing costs five increments rather than five string lookups. *)
  c_pushes : Stats.counter;
  c_demuxes : Stats.counter;
  c_crossings : Stats.counter;
  c_push_bytes : Stats.counter;
  c_demux_bytes : Stats.counter;
}

and ops = {
  open_ : upper:t -> Part.t -> session;
  open_enable : upper:t -> Part.t -> unit;
  open_done : upper:t -> Part.t -> session;
  demux : lower:session -> Msg.t -> unit;
  p_control : Control.req -> Control.reply;
}

and session = { s_name : string; s_id : int; s_proto : t; s_ops : session_ops }

and session_ops = {
  push : Msg.t -> unit;
  pop : Msg.t -> unit;
  s_control : Control.req -> Control.reply;
  close : unit -> unit;
}

let create ~host ~name ?(virtual_ = false) () =
  let p_stats = Stats.create ~name:(host.Host.name ^ "/" ^ name) () in
  {
    p_name = name;
    p_host = host;
    virtual_;
    p_below = [];
    p_ops = None;
    p_sessions = 0;
    p_stats;
    c_pushes = Stats.counter p_stats "pushes";
    c_demuxes = Stats.counter p_stats "demuxes";
    c_crossings = Stats.counter p_stats "crossings";
    c_push_bytes = Stats.counter p_stats "push-bytes";
    c_demux_bytes = Stats.counter p_stats "demux-bytes";
  }

let set_ops p ops =
  match p.p_ops with
  | Some _ -> invalid_arg ("Proto.set_ops: ops already set for " ^ p.p_name)
  | None -> p.p_ops <- Some ops

let name p = p.p_name
let host p = p.p_host
let stats p = p.p_stats
let is_virtual p = p.virtual_
let declare_below p below = p.p_below <- below
let below p = p.p_below

let ops p =
  match p.p_ops with
  | Some ops -> ops
  | None -> invalid_arg ("Proto: no ops installed for " ^ p.p_name)

let open_ p ~upper part = (ops p).open_ ~upper part
let open_enable p ~upper part = (ops p).open_enable ~upper part
let open_done p ~upper part = (ops p).open_done ~upper part
let control p req = (ops p).p_control req

let crossing_kind p =
  if p.virtual_ then Machine.Virtual_op else Machine.Layer_crossing

let deliver p ~lower msg =
  Stats.tick p.c_demuxes;
  Stats.tick p.c_crossings;
  Stats.bump p.c_demux_bytes (Msg.length msg);
  Machine.charge p.p_host.Host.mach (crossing_kind p) 0;
  (ops p).demux ~lower msg

let make_session p ?name s_ops =
  p.p_sessions <- p.p_sessions + 1;
  {
    s_name = Option.value name ~default:p.p_name;
    s_id = p.p_sessions;
    s_proto = p;
    s_ops;
  }

let session_name s = s.s_name
let session_proto s = s.s_proto
let session_id s = s.s_id

let push s msg =
  let p = s.s_proto in
  Stats.tick p.c_pushes;
  Stats.tick p.c_crossings;
  Stats.bump p.c_push_bytes (Msg.length msg);
  Machine.charge p.p_host.Host.mach (crossing_kind p) 0;
  s.s_ops.push msg

let pop s msg = s.s_ops.pop msg
let session_control s req = s.s_ops.s_control req
let close s = s.s_ops.close ()

let rec control_via handlers req =
  match handlers with
  | [] -> Control.Unsupported
  | h :: rest -> (
      match h req with
      | Control.Unsupported -> control_via rest req
      | reply -> reply)

let pp_graph fmt tops =
  let seen = Hashtbl.create 16 in
  let rec render indent p =
    let tag = if p.virtual_ then " (virtual)" else "" in
    if Hashtbl.mem seen (p.p_name, indent) then
      Format.fprintf fmt "%s%s%s [shared]@." indent p.p_name tag
    else begin
      Hashtbl.add seen (p.p_name, indent) ();
      Format.fprintf fmt "%s%s%s@." indent p.p_name tag;
      List.iter (render (indent ^ "  ")) p.p_below
    end
  in
  List.iter (render "") tops
