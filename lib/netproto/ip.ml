open Xkernel

let header_bytes = 20
let max_packet = 65535 - header_bytes
let reasm_timeout = { Sim.seconds = 1.0 }
let flag_mf = 0x2000

type iface = { if_ip : Addr.Ip.t; if_eth : Eth.t; if_arp : Arp.t }

(* Why a datagram could not be delivered; reported to the error hook
   (ICMP) together with the offending header + 8 payload bytes. *)
type delivery_error = Ttl_exceeded | Proto_unreachable

(* The next hop toward one destination, resolved once: the ETH session
   toward it and the fragment payload size (the interface's MTU less the
   header, rounded down to a multiple of 8). *)
type hop = { h_eth : Proto.session; h_chunk : int }

type reasm = {
  mutable pieces : (int * Msg.t) list; (* (offset, data) *)
  mutable total : int option; (* known once the last fragment arrives *)
  mutable timer : Event.t option;
}

type t = {
  host : Host.t;
  ifaces : iface list;
  gateway : Addr.Ip.t option;
  forward : bool;
  mutable ttl_default : int;
  p : Proto.t;
  demux : (t, Addr.Ip.t * int, Proto.session) Demux.t; (* (peer, proto) *)
  eth_cache : (Addr.Ip.t, Proto.session) Hashtbl.t; (* next hop -> eth sess *)
  hops : (Addr.Ip.t, hop) Hashtbl.t; (* destination -> its next hop *)
  reassembly : (int * int, reasm) Hashtbl.t; (* (src, ident) *)
  mutable next_ident : int;
  mutable error_hook :
    (src:Addr.Ip.t -> delivery_error -> Msg.t -> unit) option;
  mutable forward_hook :
    (src:Addr.Ip.t -> dst:Addr.Ip.t -> proto_num:int -> Msg.t -> bool) option;
  stats : Stats.t;
  (* Counters ticked per datagram, resolved once at create time. *)
  c_tx : Stats.counter;
  c_tx_frag : Stats.counter;
  c_rx : Stats.counter;
  c_rx_frag : Stats.counter;
  c_forwarded : Stats.counter;
  c_hook_consumed : Stats.counter;
}

let proto t = t.p
let set_error_hook t f = t.error_hook <- Some f
let set_forward_hook t f = t.forward_hook <- f


(* One's-complement sum folded to 16 bits: the header checksum
   arithmetic, over words already added up. *)
let rec fold16 sum =
  if sum lsr 16 = 0 then sum else fold16 ((sum land 0xffff) + (sum lsr 16))

(* The header is written once: its checksum is summed from the field
   values before any byte is written.  [frag_off] is in bytes. *)
let encode_header ~totlen ~ident ~mf ~frag_off ~ttl ~proto_num ~src ~dst =
  let flags_off =
    ((if mf then flag_mf else 0) lor (frag_off / 8)) land 0xffff
  in
  let ttl_proto = ((ttl land 0xff) lsl 8) lor (proto_num land 0xff) in
  let src = Addr.Ip.to_int src and dst = Addr.Ip.to_int dst in
  let cksum =
    lnot
      (fold16
         (0x4500 + (totlen land 0xffff) + (ident land 0xffff) + flags_off
        + ttl_proto + (src lsr 16) + (src land 0xffff) + (dst lsr 16)
        + (dst land 0xffff)))
    land 0xffff
  in
  let b = Bytes.create header_bytes in
  Codec.set_u16 b 0 0x4500;
  Codec.set_u16 b 2 totlen;
  Codec.set_u16 b 4 ident;
  Codec.set_u16 b 6 flags_off;
  Codec.set_u16 b 8 ttl_proto;
  Codec.set_u16 b 10 cksum;
  Codec.set_u32 b 12 src;
  Codec.set_u32 b 16 dst;
  Bytes.unsafe_to_string b

(* The header at the front of a datagram holding [header_bytes], read
   in place: [header_ok] checks its version and checksum, and the
   readers below take its fields in [encode_header]'s order. *)
let header_ok m =
  let sum = ref 0 in
  for i = 0 to (header_bytes / 2) - 1 do
    sum := !sum + Msg.u16 m (2 * i)
  done;
  Msg.u8 m 0 = 0x45 && fold16 !sum = 0xffff

let totlen m = Msg.u16 m 2
let ident m = Msg.u16 m 4
let mf m = Msg.u16 m 6 land flag_mf <> 0
let frag_off m = (Msg.u16 m 6 land 0x1fff) * 8
let ttl m = Msg.u8 m 8
let proto_num m = Msg.u8 m 9
let src m = Addr.Ip.of_int32_bits (Msg.u32 m 12)
let dst m = Addr.Ip.of_int32_bits (Msg.u32 m 16)

(* Hands the error hook [quote] (a header) over the first eight bytes
   of [payload]; [quote] is called only when the hook will run. *)
let report_error t ~src ~proto_num ~quote payload err =
  match t.error_hook with
  | Some hook when proto_num <> 1 && not (Addr.Ip.equal src Addr.Ip.any) ->
      hook ~src err
        (Msg.push (Msg.sub payload 0 (min 8 (Msg.length payload))) (quote ()))
  | _ -> ()

(* Routing: a destination on one of our interface networks is reached
   directly; anything else goes to the gateway. *)
let route t dst =
  let local =
    List.find_opt (fun i -> Addr.Ip.same_network i.if_ip dst) t.ifaces
  in
  match local with
  | Some iface -> Some (iface, dst)
  | None -> (
      match t.gateway with
      | None -> None
      | Some gw -> (
          match
            List.find_opt (fun i -> Addr.Ip.same_network i.if_ip gw) t.ifaces
          with
          | Some iface -> Some (iface, gw)
          | None -> None))

let eth_session t iface next_hop =
  match Hashtbl.find_opt t.eth_cache next_hop with
  | Some s -> Some s
  | None -> (
      match Arp.resolve iface.if_arp next_hop with
      | None -> None
      | Some peer_eth ->
          let part =
            Part.v
              ~local:
                [ Part.Eth t.host.Host.eth; Part.Eth_type Addr.eth_type_ip ]
              ~remotes:[ [ Part.Eth peer_eth ] ]
              ()
          in
          let s = Proto.open_ (Eth.proto iface.if_eth) ~upper:t.p part in
          Hashtbl.replace t.eth_cache next_hop s;
          Some s)

let lower_payload _t iface =
  let mtu = Control.int_exn (Proto.control (Eth.proto iface.if_eth) Get_mtu) in
  mtu - header_bytes

(* The next hop toward [dst] the slow way: route, ARP and the MTU, with
   a failure counted on every datagram that meets it.  Only a success
   is written to [hops]: the interfaces and the gateway never change and
   [eth_cache] is never invalidated, so an entry is what this would
   return again.  The [Route_lookup] charge is the caller's. *)
let resolve_hop t dst =
  match route t dst with
  | None ->
      Stats.incr t.stats "no-route";
      None
  | Some (iface, next_hop) -> (
      match eth_session t iface next_hop with
      | None ->
          Stats.incr t.stats "arp-fail";
          None
      | Some h_eth ->
          let payload_max = lower_payload t iface in
          (* Fragment offsets must be multiples of 8. *)
          let hop = { h_eth; h_chunk = payload_max - (payload_max mod 8) } in
          Hashtbl.replace t.hops dst hop;
          Some hop)

(* The fragments of [msg] from [off] on, each under its own header. *)
let rec emit t hop ~ident ~src ~dst ~proto_num ~ttl msg off =
  let len = Msg.length msg in
  let this = min hop.h_chunk (len - off) in
  let mf = off + this < len in
  let hdr =
    encode_header ~totlen:(header_bytes + this) ~ident ~mf ~frag_off:off ~ttl
      ~proto_num ~src ~dst
  in
  Machine.charge_all t.host.Host.mach
    [ (Machine.Header, header_bytes); (Machine.Checksum, header_bytes) ];
  Stats.tick (if mf || off > 0 then t.c_tx_frag else t.c_tx);
  Proto.push hop.h_eth (Msg.push (Msg.sub msg off this) hdr);
  if mf then emit t hop ~ident ~src ~dst ~proto_num ~ttl msg (off + this)

let send_via t hop ~src ~dst ~proto_num ~ttl msg =
  let ident = t.next_ident in
  t.next_ident <- (t.next_ident + 1) land 0xffff;
  if Msg.length msg > max_packet then Stats.incr t.stats "too-big"
  else emit t hop ~ident ~src ~dst ~proto_num ~ttl msg 0

(* Emit one datagram (fragmenting as needed) toward [dst]. *)
let send_datagram t ~src ~dst ~proto_num ~ttl msg =
  Trace.packet (Host.sim t.host) ~host:t.host.Host.name ~proto:"IP"
    ~dir:`Send msg;
  Machine.charge t.host.Host.mach Machine.Route_lookup 0;
  match Hashtbl.find t.hops dst with
  | hop -> send_via t hop ~src ~dst ~proto_num ~ttl msg
  | exception Not_found -> (
      match resolve_hop t dst with
      | Some hop -> send_via t hop ~src ~dst ~proto_num ~ttl msg
      | None -> ())

(* Emit a datagram from the forwarding path with an explicit source
   address — an in-network layer answering on another host's behalf. *)
let inject t ~src ~dst ~proto_num msg =
  send_datagram t ~src ~dst ~proto_num ~ttl:t.ttl_default msg

let make_session t ~upper (peer, proto_num) =
  let cell = ref None in
  let self () = Option.get !cell in
  let push msg =
    send_datagram t ~src:t.host.Host.ip ~dst:peer ~proto_num
      ~ttl:t.ttl_default msg
  in
  let pop msg = Proto.deliver upper ~lower:(self ()) msg in
  let s_control = function
    | Control.Get_peer_host -> Control.R_ip peer
    | Control.Get_my_host -> Control.R_ip t.host.Host.ip
    | Control.Get_peer_proto | Control.Get_my_proto -> Control.R_int proto_num
    | Control.Get_max_packet -> Control.R_int max_packet
    | Control.Get_opt_packet | Control.Get_mtu ->
        Control.R_int (lower_payload t (List.hd t.ifaces))
    | req -> Stats.control t.stats req
  in
  let close () = Demux.unbind t.demux (peer, proto_num) in
  let xs =
    Proto.make_session t.p
      ~name:(Printf.sprintf "ip(%s,%d)" (Addr.Ip.to_string peer) proto_num)
      { push; pop; s_control; close }
  in
  cell := Some xs;
  xs

let open_session t ~upper part =
  let peer = Part.peer_ip part in
  Demux.open_ t.demux t ~upper (peer, Part.ip_proto part)

let session_key peer proto_num = (Addr.Ip.of_int32_bits peer, proto_num)

let deliver_up t ~src ~dst ~proto_num ~ttl msg =
  Trace.packet (Host.sim t.host) ~host:t.host.Host.name ~proto:"IP"
    ~dir:`Recv msg;
  match
    Demux.find t.demux t ~key:session_key (Addr.Ip.to_int src) proto_num
      proto_num
  with
  | Some xs -> Proto.pop xs msg
  | None ->
      Stats.incr t.stats "rx-unbound";
      report_error t ~src ~proto_num
        ~quote:(fun () ->
          encode_header ~totlen:(header_bytes + Msg.length msg) ~ident:0
            ~mf:false ~frag_off:0 ~ttl ~proto_num ~src ~dst)
        msg Proto_unreachable

(* Reassembly: collect (offset, piece) pairs until they cover
   [0, total).  Overlaps from duplicated fragments are tolerated by
   keeping the first piece seen for an offset. *)
let reasm_insert t key entry ~off ~mf piece =
  if not (List.mem_assoc off entry.pieces) then
    entry.pieces <- (off, piece) :: entry.pieces;
  if not mf then entry.total <- Some (off + Msg.length piece);
  match entry.total with
  | None -> None
  | Some total ->
      let sorted =
        List.sort (fun (a, _) (b, _) -> Int.compare a b) entry.pieces
      in
      let rec covered pos = function
        | [] -> pos >= total
        | (off, piece) :: rest ->
            if off > pos then false
            else covered (max pos (off + Msg.length piece)) rest
      in
      if covered 0 sorted then begin
        (match entry.timer with
        | Some timer -> ignore (Event.cancel t.host timer)
        | None -> ());
        Hashtbl.remove t.reassembly key;
        (* Assemble, trimming overlaps. *)
        let body =
          List.fold_left
            (fun acc (off, piece) ->
              let have = Msg.length acc in
              if off >= have then Msg.append acc piece
              else if off + Msg.length piece <= have then acc
              else Msg.append acc (Msg.sub piece (have - off) (Msg.length piece - (have - off))))
            Msg.empty sorted
        in
        Some (Msg.sub body 0 total)
      end
      else None

(* A reassembly's lifetime timer: an entry still incomplete when it
   fires is dropped. *)
let reasm_expired (t, key) =
  if Hashtbl.mem t.reassembly key then begin
    Hashtbl.remove t.reassembly key;
    Stats.incr t.stats "reasm-timeout"
  end

(* Forward [payload], the body of the datagram [msg] whose header is
   still in front, as it is (same ident, offset and MF, so the final
   destination can still reassemble) with its TTL one less. *)
let forward_via t hop msg payload =
  let hdr =
    encode_header ~totlen:(totlen msg) ~ident:(ident msg) ~mf:(mf msg)
      ~frag_off:(frag_off msg) ~ttl:(ttl msg - 1) ~proto_num:(proto_num msg)
      ~src:(src msg) ~dst:(dst msg)
  in
  Machine.charge_all t.host.Host.mach
    [ (Machine.Header, header_bytes); (Machine.Checksum, header_bytes) ];
  Proto.push hop.h_eth (Msg.push payload hdr)

let rec has_address ifaces a =
  match ifaces with
  | [] -> false
  | i :: rest -> Addr.Ip.equal i.if_ip a || has_address rest a

let input t msg =
  Machine.charge_all t.host.Host.mach
    [
      (Machine.Header, header_bytes);
      (Machine.Checksum, header_bytes);
      (Machine.Reasm_lookup, 0);
    ];
  if Msg.length msg < header_bytes then Stats.incr t.stats "rx-runt"
  else if not (header_ok msg) then Stats.incr t.stats "rx-bad-checksum"
  else
    let payload_len = totlen msg - header_bytes in
    if Msg.length msg - header_bytes < payload_len then
      Stats.incr t.stats "rx-short"
    else
      let payload = Msg.sub msg header_bytes payload_len in
      let src = src msg and dst = dst msg and proto_num = proto_num msg in
      let ttl = ttl msg and mf = mf msg and frag_off = frag_off msg in
      let local_dst =
        has_address t.ifaces dst || Addr.Ip.equal dst Addr.Ip.broadcast
      in
      if not local_dst then begin
        if t.forward && ttl <= 1 then begin
          Stats.incr t.stats "ttl-exceeded";
          report_error t ~src ~proto_num
            ~quote:(fun () ->
              encode_header ~totlen:(totlen msg) ~ident:(ident msg) ~mf
                ~frag_off ~ttl ~proto_num ~src ~dst)
            payload Ttl_exceeded
        end
        else if t.forward then begin
          (* A forwarding hook (an in-network computation layer) sees
             whole datagrams only — a fragment in transit cannot be
             parsed — and may consume one instead of forwarding it. *)
          if
            (not mf) && frag_off = 0
            && (match t.forward_hook with
               | Some hook -> hook ~src ~dst ~proto_num payload
               | None -> false)
          then Stats.tick t.c_hook_consumed
          else begin
            Stats.tick t.c_forwarded;
            Machine.charge t.host.Host.mach Machine.Route_lookup 0;
            match Hashtbl.find t.hops dst with
            | hop -> forward_via t hop msg payload
            | exception Not_found -> (
                match resolve_hop t dst with
                | Some hop -> forward_via t hop msg payload
                | None -> ())
          end
        end
        else Stats.incr t.stats "rx-not-mine"
      end
      else if (not mf) && frag_off = 0 then begin
        Stats.tick t.c_rx;
        deliver_up t ~src ~dst ~proto_num ~ttl payload
      end
      else begin
        Stats.tick t.c_rx_frag;
        let key = (Addr.Ip.to_int src, ident msg) in
        let entry =
          match Hashtbl.find_opt t.reassembly key with
          | Some e -> e
          | None ->
              (* Insert before scheduling the GC timer: scheduling
                 charges (and so yields), and a concurrent shepherd
                 carrying the next fragment must find this entry. *)
              let e = { pieces = []; total = None; timer = None } in
              Hashtbl.replace t.reassembly key e;
              e.timer <-
                Some
                  (Event.schedule t.host reasm_timeout reasm_expired (t, key));
              e
        in
        match reasm_insert t key entry ~off:frag_off ~mf payload with
        | None -> ()
        | Some whole ->
            Stats.tick t.c_rx;
            deliver_up t ~src ~dst ~proto_num ~ttl whole
      end

let create ~host ~ifaces ?gateway ?(forward = false) () =
  if ifaces = [] then invalid_arg "Ip.create: no interfaces";
  let p = Proto.create ~host ~name:"IP" () in
  let stats = Proto.stats p in
  let t =
    {
      host;
      ifaces;
      gateway;
      forward;
      ttl_default = 32;
      p;
      demux = Demux.create 16 ~make:make_session;
      eth_cache = Hashtbl.create 16;
      hops = Hashtbl.create 16;
      reassembly = Hashtbl.create 16;
      next_ident = 1;
      error_hook = None;
      forward_hook = None;
      stats;
      c_tx = Stats.counter stats "tx";
      c_tx_frag = Stats.counter stats "tx-frag";
      c_rx = Stats.counter stats "rx";
      c_rx_frag = Stats.counter stats "rx-frag";
      c_forwarded = Stats.counter stats "forwarded";
      c_hook_consumed = Stats.counter stats "hook-consumed";
    }
  in
  let ops =
    {
      Proto.open_ = (fun ~upper part -> open_session t ~upper part);
      open_enable =
        (fun ~upper part -> Demux.enable t.demux (Part.ip_proto part) upper);
      open_done = (fun ~upper part -> open_session t ~upper part);
      demux = (fun ~lower:_ msg -> input t msg);
      p_control =
        (fun req ->
          match req with
          | Control.Get_max_packet -> Control.R_int max_packet
          | Control.Get_opt_packet | Control.Get_mtu ->
              Control.R_int (lower_payload t (List.hd t.ifaces))
          | Control.Get_my_host -> Control.R_ip host.Host.ip
          | Control.Get_ttl -> Control.R_int t.ttl_default
          | Control.Set_ttl n ->
              if n < 1 || n > 255 then Control.Unsupported
              else begin
                t.ttl_default <- n;
                Control.R_unit
              end
          | req -> Stats.control t.stats req);
    }
  in
  Proto.set_ops p ops;
  List.iter
    (fun iface ->
      Proto.open_enable (Eth.proto iface.if_eth) ~upper:p
        (Part.v ~local:[ Part.Eth_type Addr.eth_type_ip ] ()))
    ifaces;
  Proto.declare_below p (List.map (fun i -> Eth.proto i.if_eth) ifaces);
  t
