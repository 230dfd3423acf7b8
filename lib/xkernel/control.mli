(** The uniform [control] operation.

    Both protocol and session objects support
    [control(opcode, buffer, length)] (section 2).  The paper observes
    (section 5, "Information Loss") that a relatively small number of
    control operations — "on the order of two dozen" — suffices for
    layered protocols to learn everything monolithic protocols read from
    shared data structures.  This module defines that vocabulary, typed:
    an opcode variant plus a typed reply, in place of C's untyped
    buffer. *)

type req =
  | Get_mtu  (** maximum transmission unit of the medium below *)
  | Get_max_packet  (** largest payload this session can carry *)
  | Get_opt_packet  (** largest payload that avoids fragmentation *)
  | Get_max_msg_size
      (** asked of an *upper* protocol by VIP at open time: the largest
          message the upper protocol will ever push (section 3.1) *)
  | Get_my_host
  | Get_peer_host
  | Get_my_eth
  | Get_peer_eth
  | Get_my_port
  | Get_peer_port
  | Get_my_proto  (** protocol number this session sends as *)
  | Get_peer_proto
  | Resolve of Addr.Ip.t  (** ARP: IP to ethernet address *)
  | Reverse_resolve of Addr.Eth.t
  | Is_local of Addr.Ip.t  (** reachable on the local wire? *)
  | Get_boot_id
  | Get_timeout
  | Set_timeout of float
  | Get_rto  (** base retransmission timeout: fragment-aware, pre-backoff *)
  | Get_rto_backed
      (** retransmission timeout the next transmission would arm,
          including any persistent (Karn) backoff multiplier *)
  | Get_srtt  (** smoothed round-trip estimate; 0 before any sample *)
  | Get_retries
  | Set_retries of int
  | Get_frag_size
  | Set_frag_size of int
  | Get_ttl
  | Set_ttl of int
  | Get_channel_count
  | Get_stat of string  (** named protocol counter *)
  | Flush_cache  (** drop cached sessions / tables *)
  | Get_rx_deadline
      (** asked of a server-side session by an admission layer: the
          absolute sim time at which the current request's propagated
          deadline expires ([R_float]); [Unsupported] or a negative
          value when the request carried no deadline *)
  | Reject_busy
      (** issued against a server-side session by an admission layer:
          answer the current request with an explicit busy-pushback
          error instead of delivering it *)
  | No_reply
      (** issued against a server-side session by the layer above it:
          the request it delivered will never be answered (dropped as
          malformed, unexpected or expired), so the session stops
          waiting for a reply *)
  | Install_map of string
      (** the MAP control-plane push: an encoded shard-map wire message
          (see [Rpc.Wire_fmt.Map]).  Shard-aware protocols decode it and
          install the map iff its (epoch, version) is newer than the one
          they hold; everything else answers [Unsupported] *)
  | Get_map_version
      (** version of the currently installed shard map ([R_int]);
          [Unsupported] when the object holds no map *)

type reply =
  | R_unit
  | R_int of int
  | R_float of float
  | R_bool of bool
  | R_ip of Addr.Ip.t
  | R_eth of Addr.Eth.t
  | R_string of string
  | Unsupported
      (** the object does not implement this opcode; callers treat this
          like the x-kernel's -1 return *)

val op_count : int
(** Number of distinct opcodes — the paper's "order of two dozen". *)

(** Accessors that raise [Failure] on a shape mismatch; protocol code
    uses them when it knows what a peer layer must answer. *)

val int_exn : reply -> int
val float_exn : reply -> float
val bool_exn : reply -> bool
val ip_exn : reply -> Addr.Ip.t

val int_opt : reply -> int option
