type component =
  | Ip of Addr.Ip.t
  | Eth of Addr.Eth.t
  | Port of Addr.port
  | Ip_proto of Addr.ip_proto
  | Eth_type of Addr.eth_type
  | Channel of int
  | Command of int
  | Program of int * int
  | Procedure of int
  | Any

type participant = component list
type t = { local : participant; remotes : participant list }

let v ~local ?(remotes = []) () = { local; remotes }

let peer_opt t = match t.remotes with [] -> None | p :: _ -> Some p

let peer t =
  match peer_opt t with
  | Some p -> p
  | None -> invalid_arg "Part.peer: no remote participant"

let rec find_map f = function
  | [] -> None
  | c :: rest -> ( match f c with Some _ as r -> r | None -> find_map f rest)

let find_ip p = find_map (function Ip a -> Some a | _ -> None) p
let find_eth p = find_map (function Eth a -> Some a | _ -> None) p
let find_port p = find_map (function Port a -> Some a | _ -> None) p
let find_ip_proto p = find_map (function Ip_proto a -> Some a | _ -> None) p
let find_eth_type p = find_map (function Eth_type a -> Some a | _ -> None) p
let find_channel p = find_map (function Channel a -> Some a | _ -> None) p
let find_command p = find_map (function Command a -> Some a | _ -> None) p

let find_program p =
  find_map (function Program (a, b) -> Some (a, b) | _ -> None) p

let find_procedure p = find_map (function Procedure a -> Some a | _ -> None) p
let with_component p c = c :: p

let peer_ip t =
  match find_ip (peer t) with
  | Some ip -> ip
  | None -> invalid_arg "Part.peer_ip: peer has no IP address"

let ip_proto t =
  match Option.bind (peer_opt t) find_ip_proto with
  | Some n -> n
  | None -> (
      match find_ip_proto t.local with
      | Some n -> n
      | None -> invalid_arg "Part.ip_proto: no IP protocol number")

let ip_open ~local ~peer n =
  v ~local:[ Ip local; Ip_proto n ] ~remotes:[ [ Ip peer; Ip_proto n ] ] ()

let ip_enable n = v ~local:[ Ip_proto n ] ()

let pp_component fmt = function
  | Ip a -> Format.fprintf fmt "ip:%a" Addr.Ip.pp a
  | Eth a -> Format.fprintf fmt "eth:%a" Addr.Eth.pp a
  | Port p -> Format.fprintf fmt "port:%d" p
  | Ip_proto p -> Format.fprintf fmt "ipproto:%d" p
  | Eth_type t -> Format.fprintf fmt "ethtype:0x%04x" t
  | Channel c -> Format.fprintf fmt "chan:%d" c
  | Command c -> Format.fprintf fmt "cmd:%d" c
  | Program (p, v) -> Format.fprintf fmt "prog:%d.%d" p v
  | Procedure p -> Format.fprintf fmt "proc:%d" p
  | Any -> Format.pp_print_string fmt "*"

let pp_participant fmt p =
  Format.fprintf fmt "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
       pp_component)
    p

let pp fmt t =
  Format.fprintf fmt "{local=%a remotes=%a}" pp_participant t.local
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ";")
       pp_participant)
    t.remotes
