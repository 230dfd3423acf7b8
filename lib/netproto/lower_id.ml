open Xkernel

let identify ~arp lower =
  match Proto.session_control lower Control.Get_peer_host with
  | Control.R_ip peer_ip ->
      let proto_num =
        Control.int_exn (Proto.session_control lower Control.Get_peer_proto)
      in
      (* An ethernet-type answer can only come through the non-IP branch
         below, so a plain answer here is already an IP protocol
         number. *)
      Some (peer_ip, proto_num)
  | _ -> (
      match
        ( Proto.session_control lower Control.Get_peer_eth,
          Proto.session_control lower Control.Get_peer_proto )
      with
      | Control.R_eth peer_eth, Control.R_int eth_type -> (
          match
            (Arp.reverse arp peer_eth, Addr.ip_proto_of_eth_type eth_type)
          with
          | Some peer_ip, Some proto_num -> Some (peer_ip, proto_num)
          | _ -> None)
      | _ -> None)

(* Keyed by [Proto.session_id], which only one protocol object keeps
   unique, so a bucket holds the sessions of every lower protocol that
   share an id and a lookup picks its own by physical equality. *)
type 'a cache = {
  arp : Arp.t;
  bound : (int, (Proto.session * 'a) list) Hashtbl.t;
  mutable generation : int; (* ARP's table generation the bindings hold for *)
}

let cache ~arp = { arp; bound = Hashtbl.create 16; generation = Arp.generation arp }

let clear c =
  Hashtbl.reset c.bound;
  c.generation <- Arp.generation c.arp

let find c lower =
  if c.generation <> Arp.generation c.arp then begin
    clear c;
    raise Not_found
  end
  else List.assq lower (Hashtbl.find c.bound (Proto.session_id lower))

let bind c lower upper =
  let id = Proto.session_id lower in
  let others = try Hashtbl.find c.bound id with Not_found -> [] in
  Hashtbl.replace c.bound id ((lower, upper) :: others)
