open Xkernel

type t = {
  epoch : int;
  version : int;
  n_replicas : int;
  owners : int array;
}

let shard_count t = Array.length t.owners
let replica_count t = t.n_replicas
let epoch t = t.epoch
let version t = t.version
let owner t ~shard = t.owners.(shard)

(* SplitMix-style 63-bit mixer: deterministic across runs and hosts, so
   every participant that hashes the same (seed, shard, replica) triple
   agrees on the rendezvous weights without exchanging anything beyond
   the seed. *)
let mix a b =
  let h = ref ((a lxor (b * 0x9E3779B9)) land max_int) in
  h := !h lxor (!h lsr 29);
  h := !h * 0x2545F4914F6CDD1D land max_int;
  h := !h lxor (!h lsr 32);
  h := !h * 0x9E3779B97F4A7C1 land max_int;
  !h lxor (!h lsr 29)

let weight ~seed ~shard ~replica = mix (mix seed shard) replica

let shard_of_key t key = ((key mod shard_count t) + shard_count t) mod shard_count t

(* Rendezvous (highest-random-weight) assignment: each shard goes to the
   replica with the top hash weight among [live].  Removing a replica
   moves only the shards it owned — the minimal-movement property that
   makes crash rebalancing a bounded handoff rather than a reshuffle. *)
let assign ~seed ~shards ~live =
  if live = [] then invalid_arg "Shard_map.assign: no live replicas";
  Array.init shards (fun shard ->
      List.fold_left
        (fun best r ->
          match best with
          | None -> Some r
          | Some b ->
              if
                weight ~seed ~shard ~replica:r
                > weight ~seed ~shard ~replica:b
              then Some r
              else best)
        None live
      |> Option.get)

let create ~seed ~shards ~replicas =
  if shards < 1 || shards > Wire_fmt.Map.max_shards then
    invalid_arg "Shard_map.create: shards out of range";
  if replicas < 1 || replicas > Wire_fmt.Map.max_replicas then
    invalid_arg "Shard_map.create: replicas out of range";
  {
    epoch = seed land 0xFFFFFFFF;
    version = 1;
    n_replicas = replicas;
    owners = assign ~seed ~shards ~live:(List.init replicas Fun.id);
  }

let newer_than t ~epoch ~version =
  t.epoch > epoch || (t.epoch = epoch && t.version > version)

let diff a b =
  let changed = ref [] in
  let n = min (shard_count a) (shard_count b) in
  for shard = n - 1 downto 0 do
    if a.owners.(shard) <> b.owners.(shard) then changed := shard :: !changed
  done;
  !changed

let shards_owned t ~replica =
  Array.fold_left (fun n o -> if o = replica then n + 1 else n) 0 t.owners

let reassign t ~dead =
  let live =
    List.filter (fun r -> not (List.mem r dead)) (List.init t.n_replicas Fun.id)
  in
  if live = [] then None
  else
    let next = assign ~seed:t.epoch ~shards:(shard_count t) ~live in
    let owners =
      Array.mapi
        (fun shard o -> if List.mem o dead then next.(shard) else o)
        t.owners
    in
    if owners = t.owners then None
    else Some { t with version = t.version + 1; owners }

let move t ~shard ~to_ =
  if to_ < 0 || to_ >= t.n_replicas then invalid_arg "Shard_map.move: bad replica";
  if t.owners.(shard) = to_ then t
  else
    let owners = Array.copy t.owners in
    owners.(shard) <- to_;
    { t with version = t.version + 1; owners }

let encode t =
  Wire_fmt.Map.encode
    {
      Wire_fmt.Map.epoch = t.epoch;
      version = t.version;
      n_replicas = t.n_replicas;
      owners = t.owners;
    }

let decode s =
  Option.map
    (fun m ->
      {
        epoch = m.Wire_fmt.Map.epoch;
        version = m.Wire_fmt.Map.version;
        n_replicas = m.Wire_fmt.Map.n_replicas;
        owners = m.Wire_fmt.Map.owners;
      })
    (Wire_fmt.Map.decode s)

(* The MAP control plane.  One coordinator holds the authoritative map
   and pushes every new generation to its subscribers through the
   uniform control operation — [control (Install_map bytes)] against
   each sink protocol, exactly the late-binding channel the x-kernel
   already gives every layer.  Delivery is asynchronous: each sink gets
   its own timer at 2 ms plus up to 2 ms of seeded jitter, so a fleet
   never installs a map in lockstep and clients genuinely disagree
   about ownership for a window — the disagreement the wrong-shard
   handshake exists to absorb. *)
module Coordinator = struct
  type map = t

  type t = {
    host : Host.t;
    p : Proto.t;
    rng : Random.State.t;
    stats : Stats.t;
    mutable map : map;
    mutable sinks : Proto.t list; (* reverse subscription order *)
    mutable moved : int; (* cumulative shards that changed owner *)
    c_publish : Stats.counter;
    c_install : Stats.counter;
  }

  let publish_delay = 0.002
  let jitter = 0.002

  let current t = t.map
  let proto t = t.p
  let moved t = t.moved

  let push_to t sink encoded =
    Stats.tick t.c_publish;
    ignore (Proto.control sink (Control.Install_map encoded))

  (* [Sim.after], not [Event.schedule]: subscriptions happen at stack
     wiring time, outside any fiber, and charging a [Timer_op] would
     block there.  The push runs in the fresh fiber [Sim.after] gives
     its handler, so the control call may block freely. *)
  let publish t =
    let encoded = encode t.map in
    List.iter
      (fun sink ->
        let delay = publish_delay +. (jitter *. Random.State.float t.rng 1.) in
        ignore
          (Sim.after (Host.sim t.host) delay (fun () ->
               push_to t sink encoded)))
      (List.rev t.sinks)

  let subscribe t sink =
    t.sinks <- sink :: t.sinks;
    (* A late subscriber catches up immediately (same delayed path). *)
    let delay = publish_delay +. (jitter *. Random.State.float t.rng 1.) in
    let encoded = encode t.map in
    ignore
      (Sim.after (Host.sim t.host) delay (fun () -> push_to t sink encoded))

  let install t m =
    if newer_than m ~epoch:t.map.epoch ~version:t.map.version then begin
      t.moved <- t.moved + List.length (diff t.map m);
      t.map <- m;
      Stats.tick t.c_install;
      Stats.set t.stats "map-version" m.version;
      Trace.debugf (Host.sim t.host) ~host:t.host.Host.name
        "MAP coordinator installs v%d (%d moved so far)" m.version t.moved;
      publish t
    end

  let create ~host ~map () =
    let p = Proto.create ~host ~name:"MAP" ~virtual_:true () in
    let stats = Proto.stats p in
    let t =
      {
        host;
        p;
        rng = Sim.rng (Host.sim host);
        stats;
        map;
        sinks = [];
        moved = 0;
        c_publish = Stats.counter stats "map-publish";
        c_install = Stats.counter stats "map-install";
      }
    in
    Proto.set_ops p
      {
        Proto.open_ = (fun ~upper:_ _ -> invalid_arg "Coordinator: control only");
        open_enable =
          (fun ~upper:_ _ -> invalid_arg "Coordinator: control only");
        open_done = (fun ~upper:_ _ -> invalid_arg "Coordinator: control only");
        demux = (fun ~lower:_ _ -> Stats.incr stats "rx-unexpected");
        p_control =
          (fun req ->
            match req with
            | Control.Get_map_version -> Control.R_int t.map.version
            | req -> Stats.control stats req);
      };
    Stats.set stats "map-version" map.version;
    t
end
