open Xkernel

let flavor_none = 0
let flavor_unix = 1
let flavor_digest = 3

(* flavour (1) + upper protocol number (4) + credential length (2) *)
let fixed_bytes = 7

(* Every flavour's own protocol number toward the layer below. *)
let own_proto = 96

type t = {
  host : Host.t;
  lower : Proto.t;
  flavor : int;
  cred_for : Msg.t -> string;
  verify : cred:string -> Msg.t -> bool;
  p : Proto.t;
  demux : (t, Addr.Ip.t * int, Proto.session) Demux.t; (* (peer, upper proto) *)
  stats : Stats.t;
}

let proto t = t.p

let encode t ~upper_proto cred =
  let b = Bytes.create (fixed_bytes + String.length cred) in
  Codec.set_u8 b 0 t.flavor;
  Codec.set_u32 b 1 upper_proto;
  Codec.set_u16 b 5 (String.length cred);
  Codec.set_string b fixed_bytes cred;
  Bytes.unsafe_to_string b

let make_session t ~upper (peer, upper_proto) =
  let lower_sess =
    Proto.open_ t.lower ~upper:t.p
      (Part.ip_open ~local:t.host.Host.ip ~peer own_proto)
  in
  let cell = ref None in
  let push msg =
    let cred = t.cred_for msg in
    Stats.incr t.stats "tx";
    Machine.charge t.host.Host.mach Machine.Header
      (fixed_bytes + String.length cred);
    Proto.push lower_sess (Msg.push msg (encode t ~upper_proto cred))
  in
  let pop msg = Proto.deliver upper ~lower:(Option.get !cell) msg in
  let s_control = function
    | Control.Get_peer_host -> Control.R_ip peer
    | Control.Get_peer_proto | Control.Get_my_proto -> Control.R_int upper_proto
    | req -> Proto.session_control lower_sess req
  in
  let close () = Demux.unbind t.demux (peer, upper_proto) in
  let xs = Proto.make_session t.p { push; pop; s_control; close } in
  cell := Some xs;
  xs

let input t ~lower msg =
  match Proto.session_control lower Control.Get_peer_host with
  | Control.R_ip peer -> (
      Machine.charge t.host.Host.mach Machine.Header fixed_bytes;
      if Msg.length msg < fixed_bytes then Stats.incr t.stats "rx-runt"
      else
        let flavor = Msg.u8 msg 0 and upper_proto = Msg.u32 msg 1 in
        let cred_len = Msg.u16 msg 5 in
        if Msg.length msg - fixed_bytes < cred_len then
          Stats.incr t.stats "rx-runt"
        else
          let cred = Msg.to_string (Msg.sub msg fixed_bytes cred_len) in
          let body = Msg.drop msg (fixed_bytes + cred_len) in
          if flavor <> t.flavor then Stats.incr t.stats "flavor-mismatch"
          else if not (t.verify ~cred body) then
            Stats.incr t.stats "auth-reject"
          else begin
            Stats.incr t.stats "rx";
            match Demux.resolve t.demux t (peer, upper_proto) upper_proto with
            | Some xs -> Proto.pop xs body
            | None -> Stats.incr t.stats "rx-unbound"
          end)
  | _ -> Stats.incr t.stats "rx-unidentified"

let make ~host ~lower ~flavor ~name ~cred_for ~verify =
  let p = Proto.create ~host ~name () in
  let t =
    {
      host;
      lower;
      flavor;
      cred_for;
      verify;
      p;
      demux = Demux.create 8 ~make:make_session;
      stats = Proto.stats p;
    }
  in
  Proto.set_ops p
    {
      Proto.open_ =
        (fun ~upper part ->
          let peer = Part.peer_ip part in
          Demux.open_ t.demux t ~upper (peer, Part.ip_proto part));
      open_enable =
        (fun ~upper part ->
          Demux.enable t.demux (Part.ip_proto part) upper;
          Proto.open_enable t.lower ~upper:t.p (Part.ip_enable own_proto));
      open_done = (fun ~upper:_ _ -> invalid_arg "Auth: open_done");
      demux = (fun ~lower msg -> input t ~lower msg);
      p_control =
        (fun req ->
          match req with
          | Control.Get_max_msg_size | Control.Get_max_packet
          | Control.Get_opt_packet ->
              Proto.control t.lower req
          | req -> Stats.control t.stats req);
    };
  Proto.declare_below p [ lower ];
  t

let none ~host ~lower () =
  make ~host ~lower ~flavor:flavor_none ~name:"AUTH_NONE"
    ~cred_for:(fun _ -> "")
    ~verify:(fun ~cred:_ _ -> true)

let unix ~host ~lower ~uid ~gid ~allow () =
  let cred_for _msg =
    let b = Bytes.create 8 in
    Codec.set_u32 b 0 uid;
    Codec.set_u32 b 4 gid;
    Bytes.unsafe_to_string b
  in
  let verify ~cred _msg =
    let u32 i =
      (String.get_uint16_be cred i lsl 16) lor String.get_uint16_be cred (i + 2)
    in
    String.length cred = 8 && allow ~uid:(u32 0) ~gid:(u32 4)
  in
  make ~host ~lower ~flavor:flavor_unix ~name:"AUTH_UNIX" ~cred_for
    ~verify

(* Toy keyed checksum: a weighted byte sum of key and body.  Enough to
   catch tampering in tests; not cryptography. *)
let digest_of ~key msg =
  let h = ref 5381 in
  let feed c = h := (((!h lsl 5) + !h) + Char.code c) land 0x3fffffff in
  String.iter feed key;
  String.iter feed (Msg.to_string msg);
  let b = Bytes.create 4 in
  Codec.set_u32 b 0 !h;
  Bytes.unsafe_to_string b

let digest ~host ~lower ~key () =
  make ~host ~lower ~flavor:flavor_digest ~name:"AUTH_DIGEST"
    ~cred_for:(fun msg -> digest_of ~key msg)
    ~verify:(fun ~cred msg -> String.equal cred (digest_of ~key msg))
