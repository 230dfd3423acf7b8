(** FRAGMENT — unreliable, persistent bulk transfer (section 3.2).

    The bottom layer of layered Sprite RPC, deliberately carved out so
    other protocols (Psync, Sun RPC mixes) can reuse it.  Semantics:

    - {b unreliable}: messages may arrive out of order, duplicated, or
      not at all; no positive acknowledgements are ever sent;
    - {b persistent}: a receiver missing fragments asks the sender for
      exactly those fragments (a NACK carrying the missing-fragment
      mask), a bounded number of times;
    - the sender keeps each message, to cut its fragments again for a
      NACK, and discards it 2 s after sending — not when the message
      is acknowledged, because it never is.  A session keeps its sent
      messages in one ring indexed by sequence number, freed by one
      discard sweep at the oldest message's discard time, rather than
      a timer per message;
    - a message re-pushed by a higher-level protocol (e.g. a CHANNEL
      retransmission) is an independent message with a fresh sequence
      number.

    Each message is split into at most 16 fragments (the 16-bit
    fragment mask), 1 KB each by default, carrying the 23-byte
    FRAGMENT_HDR of the paper's appendix. *)

type t

val proto_num : int
(** 92: FRAGMENT's {e own} protocol number toward the layer below.  The
    protocol-number field inside its header names whichever upper
    protocol each message belongs to — the reason a reusable layer
    "must have its own protocol number (type) field" (section 3.2). *)

val create : host:Xkernel.Host.t -> lower:Xkernel.Proto.t -> t
(** Fragments of 1024 bytes (Sprite's fragment size: a 16 KB message
    becomes 16 packets, per section 4.2; [Set_frag_size] changes it).  The sender discards
    a message's fragments after 2 s; a receiver waits 30 ms on an
    incomplete message before requesting the missing fragments, and
    rearms that up to 3 times. *)

val proto : t -> Xkernel.Proto.t

val recent_count : t -> int
(** Total entries in the recently-completed dedup tables across all
    sessions — bounded by the prune timer; exposed for tests. *)

val reasm_count : t -> int
(** Total in-progress partial reassemblies across all sessions —
    cleared by a {!Xkernel.Host.reboot} of the owning host; exposed for
    tests. *)

(** Participants: like VIP — [Ip peer] + [Ip_proto n].  Sessions answer
    [Get_peer_host], [Get_frag_size], [Get_max_packet] (16 × fragment
    size: the largest message one FRAGMENT sequence number can carry),
    [Get_opt_packet] (= fragment size).  The protocol answers
    [Get_max_packet] the same way and [Get_max_msg_size] with fragment
    size + header, so a VIP *below* FRAGMENT knows it never needs the
    IP path for local peers.

    Statistics: ["tx-msg"], ["tx-frag"], ["rx-msg"], ["rx-frag"],
    ["nack-tx"], ["nack-rx"], ["retransmit"], ["cache-drop"],
    ["give-up"], ["recent-pruned"]. *)
