module Ip = struct
  type t = int

  let v a b c d =
    let octet name x =
      if x < 0 || x > 255 then invalid_arg ("Addr.Ip.v: bad octet " ^ name);
      x
    in
    (octet "a" a lsl 24)
    lor (octet "b" b lsl 16)
    lor (octet "c" c lsl 8)
    lor octet "d" d

  let of_int32_bits n = n land 0xffffffff
  let to_int t = t

  let of_string s =
    match String.split_on_char '.' s with
    | [ a; b; c; d ] -> (
        match
          (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c,
           int_of_string_opt d)
        with
        | Some a, Some b, Some c, Some d
          when List.for_all (fun x -> x >= 0 && x <= 255) [ a; b; c; d ] ->
            Some (v a b c d)
        | _ -> None)
    | _ -> None

  let to_string t =
    Printf.sprintf "%d.%d.%d.%d" ((t lsr 24) land 0xff) ((t lsr 16) land 0xff)
      ((t lsr 8) land 0xff) (t land 0xff)

  let pp fmt t = Format.pp_print_string fmt (to_string t)
  let equal = Int.equal
  let broadcast = 0xffffffff
  let any = 0
  let network t = t lsr 8
  let same_network a b = network a = network b
end

module Eth = struct
  type t = int

  let v n =
    if n < 0 || n > 0xffffffffffff then invalid_arg "Addr.Eth.v: not 48 bits";
    n

  let to_int t = t

  let to_string t =
    Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x" ((t lsr 40) land 0xff)
      ((t lsr 32) land 0xff)
      ((t lsr 24) land 0xff)
      ((t lsr 16) land 0xff)
      ((t lsr 8) land 0xff) (t land 0xff)

  let pp fmt t = Format.pp_print_string fmt (to_string t)
  let equal = Int.equal
  let broadcast = 0xffffffffffff
  let is_broadcast t = t = broadcast
end

type port = int
type ip_proto = int
type eth_type = int

let eth_type_ip = 0x0800
let eth_type_arp = 0x0806
let vip_eth_type_base = 0x4000

let eth_type_of_ip_proto p =
  if p < 0 || p > 255 then invalid_arg "eth_type_of_ip_proto";
  vip_eth_type_base lor p

let ip_proto_of_eth_type t =
  if t >= vip_eth_type_base && t < vip_eth_type_base + 256 then
    Some (t land 0xff)
  else None
