open Xkernel

let op_request = 1
let op_reply = 2
let header_bytes = 21
let retry_timeout = 0.05
let max_tries = 3

type t = {
  host : Host.t;
  eth : Eth.t;
  p : Proto.t;
  table : (Addr.Ip.t, Addr.Eth.t) Hashtbl.t;
  pending : (Addr.Ip.t, Addr.Eth.t Sim.Ivar.ivar list ref) Hashtbl.t;
  mutable bcast : Proto.session option;
  mutable generation : int; (* bumped when [table] gains or changes a mapping *)
  stats : Stats.t;
}

let proto t = t.p

let encode ~op ~sender_ip ~sender_eth ~target_ip ~target_eth =
  let b = Bytes.create header_bytes in
  Codec.set_u8 b 0 op;
  Codec.set_u32 b 1 (Addr.Ip.to_int sender_ip);
  Codec.set_u48 b 5 (Addr.Eth.to_int sender_eth);
  Codec.set_u32 b 11 (Addr.Ip.to_int target_ip);
  Codec.set_u48 b 15 (Addr.Eth.to_int target_eth);
  Bytes.unsafe_to_string b

let generation t = t.generation

let add_entry t ip eth =
  match Hashtbl.find t.table ip with
  | e when Addr.Eth.equal e eth -> ()
  | _ | (exception Not_found) ->
      Hashtbl.replace t.table ip eth;
      t.generation <- t.generation + 1

let reverse t eth =
  Hashtbl.fold
    (fun ip e acc -> if Addr.Eth.equal e eth then Some ip else acc)
    t.table None

let broadcast_session t =
  match t.bcast with
  | Some s -> s
  | None ->
      let part =
        Part.v
          ~local:[ Part.Eth t.host.Host.eth; Part.Eth_type Addr.eth_type_arp ]
          ~remotes:[ [ Part.Eth Addr.Eth.broadcast ] ]
          ()
      in
      let s = Proto.open_ (Eth.proto t.eth) ~upper:t.p part in
      t.bcast <- Some s;
      s

let send t ~via ~op ~target_ip ~target_eth =
  Machine.charge t.host.Host.mach Machine.Header header_bytes;
  let pkt =
    encode ~op ~sender_ip:t.host.Host.ip ~sender_eth:t.host.Host.eth
      ~target_ip ~target_eth
  in
  Proto.push via (Msg.of_string pkt)

let resolve t ip =
  if Addr.Ip.equal ip Addr.Ip.broadcast then Some Addr.Eth.broadcast
  else if Addr.Ip.equal ip t.host.Host.ip then Some t.host.Host.eth
  else
    match Hashtbl.find_opt t.table ip with
    | Some e -> Some e
    | None ->
        let iv = Sim.Ivar.create (Host.sim t.host) in
        let waiters =
          match Hashtbl.find_opt t.pending ip with
          | Some l -> l
          | None ->
              let l = ref [] in
              Hashtbl.replace t.pending ip l;
              l
        in
        waiters := iv :: !waiters;
        let rec attempt tries =
          if tries = 0 then begin
            waiters := List.filter (fun i -> i != iv) !waiters;
            Stats.incr t.stats "resolve-fail";
            None
          end
          else begin
            Stats.incr t.stats "request-tx";
            send t ~via:(broadcast_session t) ~op:op_request ~target_ip:ip
              ~target_eth:(Addr.Eth.v 0);
            match Sim.Ivar.read_timeout iv retry_timeout with
            | Some e -> Some e
            | None -> attempt (tries - 1)
          end
        in
        attempt max_tries

let learn t ip eth =
  if not (Addr.Ip.equal ip t.host.Host.ip) then begin
    add_entry t ip eth;
    match Hashtbl.find_opt t.pending ip with
    | None -> ()
    | Some waiters ->
        let to_wake = !waiters in
        waiters := [];
        Hashtbl.remove t.pending ip;
        List.iter (fun iv -> Sim.Ivar.fill iv eth) to_wake
  end

let input t msg =
  Machine.charge t.host.Host.mach Machine.Header header_bytes;
  if Msg.length msg < header_bytes then Stats.incr t.stats "rx-runt"
  else
    let op = Msg.u8 msg 0 in
    let sender_ip = Addr.Ip.of_int32_bits (Msg.u32 msg 1) in
    let sender_eth = Addr.Eth.v (Msg.u48 msg 5) in
    let target_ip = Addr.Ip.of_int32_bits (Msg.u32 msg 11) in
    learn t sender_ip sender_eth;
    if op = op_request && Addr.Ip.equal target_ip t.host.Host.ip then begin
      Stats.incr t.stats "reply-tx";
      (* Reply unicast to the requester. *)
      let part =
        Part.v
          ~local:
            [ Part.Eth t.host.Host.eth; Part.Eth_type Addr.eth_type_arp ]
          ~remotes:[ [ Part.Eth sender_eth ] ]
          ()
      in
      let via = Proto.open_ (Eth.proto t.eth) ~upper:t.p part in
      send t ~via ~op:op_reply ~target_ip:sender_ip ~target_eth:sender_eth
    end

let create ~host ~eth =
  let p = Proto.create ~host ~name:"ARP" () in
  let t =
    {
      host;
      eth;
      p;
      table = Hashtbl.create 16;
      pending = Hashtbl.create 8;
      bcast = None;
      generation = 0;
      stats = Proto.stats p;
    }
  in
  add_entry t host.Host.ip host.Host.eth;
  let unsupported_open _ = invalid_arg "ARP has no upper sessions" in
  let ops =
    {
      Proto.open_ = (fun ~upper:_ part -> unsupported_open part);
      open_enable = (fun ~upper:_ _ -> invalid_arg "ARP: open_enable");
      open_done = (fun ~upper:_ part -> unsupported_open part);
      demux = (fun ~lower:_ msg -> input t msg);
      p_control =
        (fun req ->
          match req with
          | Control.Resolve ip -> (
              match resolve t ip with
              | Some e -> Control.R_eth e
              | None -> Control.R_bool false)
          | Control.Reverse_resolve e -> (
              match reverse t e with
              | Some ip -> Control.R_ip ip
              | None -> Control.R_bool false)
          | Control.Is_local ip -> Control.R_bool (resolve t ip <> None)
          | req -> Stats.control t.stats req);
    }
  in
  Proto.set_ops p ops;
  Proto.open_enable (Eth.proto eth) ~upper:p
    (Part.v ~local:[ Part.Eth_type Addr.eth_type_arp ] ());
  Proto.declare_below p [ Eth.proto eth ];
  t
