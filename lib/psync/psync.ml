open Xkernel

let typ_data = 1
let typ_resend = 2
let resend_delay = 0.05
let resend_tries = 3
let proto_num = 97

type msg_id = { origin : Addr.Ip.t; seq : int }

type packet = {
  pk_conv : int;
  pk_id : msg_id;
  pk_ctx : msg_id list;
  pk_body : Msg.t;
}

type conversation = {
  cv : t;
  conv_id : int;
  sessions : (Addr.Ip.t * Proto.session) list;
  mutable my_seq : int;
  delivered_ids : (int * int, unit) Hashtbl.t; (* (origin, seq) *)
  origin_store : (int, msg_id list * Msg.t) Hashtbl.t; (* my seq -> ctx,body *)
  mutable waiting : packet list;
  mutable leaves : msg_id list;
  mutable callback :
    (sender:Addr.Ip.t -> id:msg_id -> context:msg_id list -> Msg.t -> unit)
    option;
  requested : (int * int, int) Hashtbl.t; (* resend attempts per id *)
}

and t = {
  host : Host.t;
  lower : Proto.t;
  p : Proto.t;
  convs : (int, conversation) Hashtbl.t;
  stats : Stats.t;
}

let proto t = t.p

let key (id : msg_id) = (Addr.Ip.to_int id.origin, id.seq)

(* Fixed part: 14 bytes; context entries: 8 bytes each. *)
let fixed_bytes = 14

let header_of pk ~typ =
  let nctx = List.length pk.pk_ctx in
  let b = Bytes.create (fixed_bytes + (nctx * 8)) in
  Codec.set_u8 b 0 typ;
  Codec.set_u32 b 1 pk.pk_conv;
  Codec.set_u32 b 5 (Addr.Ip.to_int pk.pk_id.origin);
  Codec.set_u32 b 9 pk.pk_id.seq;
  Codec.set_u8 b 13 nctx;
  List.iteri
    (fun i id ->
      let off = fixed_bytes + (i * 8) in
      Codec.set_u32 b off (Addr.Ip.to_int id.origin);
      Codec.set_u32 b (off + 4) id.seq)
    pk.pk_ctx;
  Bytes.unsafe_to_string b

let parse msg =
  if Msg.length msg < fixed_bytes then None
  else
    let nctx = Msg.u8 msg 13 in
    let hdr_len = fixed_bytes + (nctx * 8) in
    if Msg.length msg < hdr_len then None
    else
      let id off =
        {
          origin = Addr.Ip.of_int32_bits (Msg.u32 msg off);
          seq = Msg.u32 msg (off + 4);
        }
      in
      let ctx = List.init nctx (fun i -> id (fixed_bytes + (i * 8))) in
      Some
        ( Msg.u8 msg 0,
          {
            pk_conv = Msg.u32 msg 1;
            pk_id = id 5;
            pk_ctx = ctx;
            pk_body = Msg.drop msg hdr_len;
          } )

let transmit t sess ~typ pk =
  let hdr = header_of pk ~typ in
  Machine.charge t.host.Host.mach Machine.Header
    (String.length hdr);
  Proto.push sess (Msg.push pk.pk_body hdr)


let is_delivered cv id = Hashtbl.mem cv.delivered_ids (key id)

let mark_delivered cv pk =
  Hashtbl.replace cv.delivered_ids (key pk.pk_id) ();
  (* The new message supersedes its context in the frontier. *)
  cv.leaves <-
    pk.pk_id
    :: List.filter
         (fun leaf -> not (List.exists (fun c -> key c = key leaf) pk.pk_ctx))
         cv.leaves

let deliver cv pk =
  mark_delivered cv pk;
  Stats.incr cv.cv.stats "delivered";
  match cv.callback with
  | Some f ->
      f ~sender:pk.pk_id.origin ~id:pk.pk_id ~context:pk.pk_ctx pk.pk_body
  | None -> ()

(* Deliver every buffered message whose context is now satisfied;
   repeat to a fixpoint since each delivery can unblock others. *)
let rec drain cv =
  let ready, still =
    List.partition
      (fun pk -> List.for_all (is_delivered cv) pk.pk_ctx)
      cv.waiting
  in
  cv.waiting <- still;
  if ready <> [] then begin
    List.iter (fun pk -> if not (is_delivered cv pk.pk_id) then deliver cv pk) ready;
    drain cv
  end

(* Psync-style recovery: ask a message's original sender to resend it,
   a bounded number of times. *)
let rec request_missing cv id =
  let k = key id in
  let tries = Option.value (Hashtbl.find_opt cv.requested k) ~default:0 in
  if tries < resend_tries && not (is_delivered cv id) then begin
    Hashtbl.replace cv.requested k (tries + 1);
    Stats.incr cv.cv.stats "resend-req-tx";
    (match List.assoc_opt id.origin cv.sessions with
    | Some sess ->
        transmit cv.cv sess ~typ:typ_resend
          { pk_conv = cv.conv_id; pk_id = id; pk_ctx = []; pk_body = Msg.empty }
    | None -> ());
    ignore (Event.schedule cv.cv.host resend_delay resend_due (cv, id))
  end

and resend_due (cv, id) = if not (is_delivered cv id) then request_missing cv id

let receive_data cv pk =
  if is_delivered cv pk.pk_id then Stats.incr cv.cv.stats "dup"
  else if List.exists (fun w -> key w.pk_id = key pk.pk_id) cv.waiting then
    Stats.incr cv.cv.stats "dup"
  else begin
    cv.waiting <- pk :: cv.waiting;
    drain cv;
    (* Anything still waiting has missing context: recover it. *)
    List.iter
      (fun w ->
        List.iter
          (fun c -> if not (is_delivered cv c) then request_missing cv c)
          w.pk_ctx)
      cv.waiting
  end

let receive_resend cv pk ~from =
  Stats.incr cv.cv.stats "resend-req-rx";
  if Addr.Ip.equal pk.pk_id.origin cv.cv.host.Host.ip then begin
    match Hashtbl.find_opt cv.origin_store pk.pk_id.seq with
    | Some (ctx, body) -> (
        match List.assoc_opt from cv.sessions with
        | Some sess ->
            Stats.incr cv.cv.stats "resend-tx";
            transmit cv.cv sess ~typ:typ_data
              { pk_conv = cv.conv_id; pk_id = pk.pk_id; pk_ctx = ctx; pk_body = body }
        | None -> ())
    | None -> Stats.incr cv.cv.stats "resend-unknown"
  end

let input t ~lower msg =
  match parse msg with
  | None -> Stats.incr t.stats "rx-malformed"
  | Some (typ, pk) -> (
      match Hashtbl.find_opt t.convs pk.pk_conv with
      | None -> Stats.incr t.stats "rx-no-conv"
      | Some cv ->
          if typ = typ_data then receive_data cv pk
          else if typ = typ_resend then begin
            match Proto.session_control lower Control.Get_peer_host with
            | Control.R_ip from -> receive_resend cv pk ~from
            | _ -> Stats.incr t.stats "rx-unidentified"
          end
          else Stats.incr t.stats "rx-malformed")

let join t ~conv_id ~members =
  match Hashtbl.find_opt t.convs conv_id with
  | Some cv -> cv
  | None ->
      let others =
        List.filter (fun m -> not (Addr.Ip.equal m t.host.Host.ip)) members
      in
      let sessions =
        List.map
          (fun m ->
            let part = Part.ip_open ~local:t.host.Host.ip ~peer:m proto_num in
            (m, Proto.open_ t.lower ~upper:t.p part))
          others
      in
      let cv =
        {
          cv = t;
          conv_id;
          sessions;
          my_seq = 0;
          delivered_ids = Hashtbl.create 64;
          origin_store = Hashtbl.create 64;
          waiting = [];
          leaves = [];
          callback = None;
          requested = Hashtbl.create 16;
        }
      in
      Hashtbl.replace t.convs conv_id cv;
      cv

let send cv msg =
  let t = cv.cv in
  cv.my_seq <- cv.my_seq + 1;
  let id = { origin = t.host.Host.ip; seq = cv.my_seq } in
  let ctx = cv.leaves in
  Hashtbl.replace cv.origin_store cv.my_seq (ctx, msg);
  Hashtbl.replace cv.delivered_ids (key id) ();
  cv.leaves <- [ id ];
  Stats.incr t.stats "sent";
  List.iter
    (fun (_m, sess) ->
      transmit t sess ~typ:typ_data
        { pk_conv = cv.conv_id; pk_id = id; pk_ctx = ctx; pk_body = msg })
    cv.sessions;
  id

let on_deliver cv f = cv.callback <- Some f
let delivered cv = Stats.get cv.cv.stats "delivered"
let blocked cv = List.length cv.waiting

let create ~host ~lower =
  let p = Proto.create ~host ~name:"PSYNC" () in
  let t = { host; lower; p; convs = Hashtbl.create 4; stats = Proto.stats p } in
  Proto.set_ops p
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "Psync: use join/send");
      open_enable = (fun ~upper:_ _ -> invalid_arg "Psync: use join");
      open_done = (fun ~upper:_ _ -> invalid_arg "Psync: use join");
      demux = (fun ~lower msg -> input t ~lower msg);
      p_control =
        (fun req ->
          match req with
          (* Psync accommodates messages of up to 16 KB (section 3.2);
             it relies on the bulk-transfer layer below. *)
          | Control.Get_max_msg_size ->
              Proto.control t.lower Control.Get_max_msg_size
          | req -> Stats.control t.stats req);
    };
  Proto.open_enable lower ~upper:p (Part.ip_enable proto_num);
  Proto.declare_below p [ lower ];
  t
