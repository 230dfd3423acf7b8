(** CHANNEL — request/reply with at-most-once semantics (section 3.2).

    The middle layer of layered Sprite RPC.  Each channel is a separate
    x-kernel session carrying one outstanding transaction, using
    Sprite's implicit-acknowledgement scheme: a reply acknowledges its
    request, and the next request on a channel acknowledges the previous
    reply, so in the common case no acknowledgement packets exist.
    Timeouts trigger request retransmission; a retransmission asks for
    an explicit acknowledgement, which a busy server answers with an ACK
    packet ("I have it; keep waiting").

    At-most-once: the server keeps, per channel, the last sequence
    number executed and the cached reply; a duplicate request gets the
    cached reply back instead of a re-execution.  Boot identifiers on
    both sides detect restarts — a reply from a different incarnation of
    the server surfaces as [Rebooted] rather than a silent
    re-execution.

    CHANNEL's timeout is a step function tuned to FRAGMENT living below
    it as a separate protocol: single-fragment requests use a short
    timeout; multi-fragment requests wait long enough to be sure the
    fragmentation layer is not still transmitting (the fragment count is
    read from the lower session with [control Get_frag_size]).

    On top of the step function each channel keeps an adaptive
    retransmission timeout: Jacobson's SRTT/RTTVAR estimate
    (RTO = srtt + 4 x rttvar) with Karn's rule (retransmitted
    transactions yield no sample), exponential backoff with a cap and
    seeded jitter.  The step function still governs until the first RTT
    sample, and its fragment-serialization component remains a hard
    floor, so a loss-free run behaves exactly like the fixed-timeout
    stack while a lossy or congested one converges to the real RTT.

    Crash/restart: {!create} registers a {!Xkernel.Host.at_reboot} hook
    that resets every channel in place — outstanding callers are woken
    with [Error Rebooted], timers die, at-most-once reply caches and RTT
    estimates are cleared — while the session handles upper layers hold
    stay valid for the next incarnation. *)

type t

val proto_num : int
(** 93: CHANNEL's own protocol number toward the layer below (its
    header's protocol-number field names the upper protocol). *)

val create :
  host:Xkernel.Host.t ->
  lower:Xkernel.Proto.t ->
  ?n_channels:int ->
  ?adaptive:bool ->
  ?rto_load_floor:bool ->
  unit ->
  t
(** [n_channels] (default 8) is Sprite's fixed, predefined channel
    count.  The timeout is Sprite's step function: 20 ms for
    single-fragment requests, plus 3 ms per expected fragment otherwise,
    with 5 retries.

    [adaptive] (default [true]) enables the per-channel RTT estimator;
    [false] gives the paper's fixed step-function timeout on every
    transmission.  The adaptive RTO and its exponential backoff are
    capped at 1 s.

    [rto_load_floor] (default [true]) scales the {e armed} retransmit
    timer by the ratio of currently in-flight requests to the in-flight
    count behind the RTT estimate.  An srtt learned at idle otherwise
    fires prematurely the moment queueing delay under load exceeds
    [srtt + 4*rttvar], and Karn's rule then starves the estimator of
    the samples that would correct it — the retransmission storm the
    adaptive fan-in stack exhibits past the capacity knee.  The scale
    only ever lengthens the armed timer; the reported RTO gauges are
    the bare estimate. *)

val proto : t -> Xkernel.Proto.t
val n_channels : t -> int

val call :
  ?expires:float ->
  t -> Xkernel.Proto.session -> Xkernel.Msg.t ->
  (Xkernel.Msg.t, Rpc_error.t) result
(** [call t session request] runs one transaction on [session] (which
    must be a channel session of [t]): sends, blocks the calling fiber,
    retransmits on timeout, and returns the reply.  This is the paper's
    "a high-level protocol pushes a message into the session and a reply
    message is returned".  A channel carries one transaction at a time:
    if one is already outstanding, or its blocked caller has not yet
    taken its reply, [call] returns [Error Busy] at once (counted as
    ["call-busy"]).  The transaction lives in the session itself, so a
    call allocates no transaction record, ivar or timer closure.
    Raises [Invalid_argument] if [session] is not a channel session of
    [t].

    [expires] (absolute sim time) propagates the caller's deadline: each
    transmission — including retransmits — stamps the budget remaining
    {e at that instant} into the header's deadline extension, the
    retransmit timer gives up with [Error Timeout] once it passes
    (["deadline-give-up"]), and the server drops requests whose stamp
    arrives already spent (["deadline-expired-server"]) without touching
    the channel.  Without [expires] the wire format is byte-identical to
    the paper's 18-byte header. *)

(** Uniform-interface use: [open_] takes [Ip peer], [Ip_proto n] and
    [Channel c] components.  A plain [push] sends a request whose reply
    is delivered *up* (via the opener's [demux]) instead of returned.
    The server side is passive: [open_enable] with [Ip_proto n]; each
    incoming request is delivered up, and the upper protocol replies by
    pushing into the session the request arrived on.

    Session control: [Get_timeout] and [Get_rto] both report the
    {e effective} RTO for a request the size of the last one sent —
    fragment-aware, adaptive once a sample exists; [Get_srtt] reports
    the smoothed RTT (0 before the first sample).  Server-side sessions
    additionally answer [Get_rx_deadline] (absolute expiry of the
    request being served, [-1.] if none was propagated) and
    [Reject_busy] (reply to the claiming request with the explicit
    busy-pushback error, surfaced at the caller as [Error Busy]) — the
    hooks an admission-control layer runs on.

    Statistics: ["req-tx"], ["req-rx"], ["reply-tx"], ["reply-rx"],
    ["retransmit"], ["ack-tx"], ["ack-rx"], ["dup-req"],
    ["cached-reply-tx"], ["stale-rx"]; estimator: ["rtt-sample"],
    ["karn-skip"], ["rto-backoff"], ["crash-reset"], and gauges
    ["srtt-us"] / ["rto-us"]; overload control: ["deadline-give-up"],
    ["deadline-expired-server"], ["busy-reply-rx"], ["uniform-busy"]
    (plus a ["busy-dropped"] counter on the {e upper} protocol whose
    uniform push was discarded). *)
