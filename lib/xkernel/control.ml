type req =
  | Get_mtu
  | Get_max_packet
  | Get_opt_packet
  | Get_max_msg_size
  | Get_my_host
  | Get_peer_host
  | Get_my_eth
  | Get_peer_eth
  | Get_my_port
  | Get_peer_port
  | Get_my_proto
  | Get_peer_proto
  | Resolve of Addr.Ip.t
  | Reverse_resolve of Addr.Eth.t
  | Is_local of Addr.Ip.t
  | Get_boot_id
  | Get_timeout
  | Set_timeout of float
  | Get_rto
  | Get_rto_backed
  | Get_srtt
  | Get_retries
  | Set_retries of int
  | Get_frag_size
  | Set_frag_size of int
  | Get_ttl
  | Set_ttl of int
  | Get_channel_count
  | Get_stat of string
  | Flush_cache
  | Get_rx_deadline
  | Reject_busy
  | No_reply
  | Install_map of string
  | Get_map_version

type reply =
  | R_unit
  | R_int of int
  | R_float of float
  | R_bool of bool
  | R_ip of Addr.Ip.t
  | R_eth of Addr.Eth.t
  | R_string of string
  | Unsupported

let op_count = 35

let shape_failure what reply_name =
  failwith (Printf.sprintf "Control: expected %s, got %s" what reply_name)

let reply_name = function
  | R_unit -> "unit"
  | R_int _ -> "int"
  | R_float _ -> "float"
  | R_bool _ -> "bool"
  | R_ip _ -> "ip"
  | R_eth _ -> "eth"
  | R_string _ -> "string"
  | Unsupported -> "unsupported"

let int_exn = function R_int i -> i | r -> shape_failure "int" (reply_name r)

let float_exn = function
  | R_float f -> f
  | r -> shape_failure "float" (reply_name r)

let bool_exn = function
  | R_bool b -> b
  | r -> shape_failure "bool" (reply_name r)

let ip_exn = function R_ip a -> a | r -> shape_failure "ip" (reply_name r)
let int_opt = function R_int i -> Some i | _ -> None
