open Xkernel

type t = {
  host : Host.t;
  coord : Shard_map.Coordinator.t;
  replica_health : int -> [ `Up | `Dead ];
  shard_load : unit -> int array;
  interval : float;
  skew_ratio : float;
  on_crash : bool;
  on_skew : bool;
  stats : Stats.t;
  mutable last_load : int array; (* cumulative snapshot at previous tick *)
  mutable skew_streak : int; (* consecutive ticks the skew trigger held *)
  mutable moves : int;
}

(* Consecutive skewed ticks before a move. *)
let sustain = 2

let moves t = t.moves

let majority_health replicas r =
  let dead =
    Array.fold_left
      (fun n cl ->
        if Select_replica.health cl r = Select_replica.Dead then n + 1 else n)
      0 replicas
  in
  if 2 * dead >= Array.length replicas then `Dead else `Up

let summed_load ~shards replicas () =
  let acc = Array.make shards 0 in
  Array.iter
    (fun cl ->
      Array.iteri
        (fun i v -> acc.(i) <- acc.(i) + v)
        (Select_replica.shard_calls cl))
    replicas;
  acc

let argbest ~better xs =
  List.fold_left
    (fun best x ->
      match best with Some b when not (better x b) -> best | _ -> Some x)
    None xs

(* Crash policy: every shard owned by a Dead replica is reassigned to
   its best live rendezvous candidate in one map generation. *)
let tick_crash t m ~dead =
  match Shard_map.reassign m ~dead with
  | None -> false
  | Some m' ->
      t.moves <- t.moves + List.length (Shard_map.diff m m');
      Stats.incr t.stats "rebalance-crash";
      Shard_map.Coordinator.install t.coord m';
      true

(* Skew policy: compare per-replica load over the last interval (the
   delta of the cumulative per-shard counts).  Only when the hottest
   live replica carries more than [skew_ratio] times the coldest for
   [sustain] consecutive ticks does one shard move — the hottest shard
   of the hot replica to the coldest replica — after which the streak
   resets, so the next move needs fresh evidence under the new map.
   That streak-plus-reset is the hysteresis that keeps a noisy load
   signal from ping-ponging shards. *)
let tick_skew t m ~live ~delta =
  if Array.length delta <> Shard_map.shard_count m then ()
  else begin
    let per_replica = Array.make (Shard_map.replica_count m) 0 in
    Array.iteri
      (fun shard l ->
        let o = Shard_map.owner m ~shard in
        per_replica.(o) <- per_replica.(o) + l)
      delta;
    match live with
    | [] | [ _ ] -> t.skew_streak <- 0
    | _ -> (
        let hot =
          Option.get
            (argbest ~better:(fun a b -> per_replica.(a) > per_replica.(b)) live)
        and cold =
          Option.get
            (argbest ~better:(fun a b -> per_replica.(a) < per_replica.(b)) live)
        in
        if
          hot <> cold
          && float_of_int per_replica.(hot)
             > t.skew_ratio *. float_of_int (max 1 per_replica.(cold))
        then begin
          t.skew_streak <- t.skew_streak + 1;
          if t.skew_streak >= sustain then begin
            t.skew_streak <- 0;
            let owned =
              List.filter
                (fun s -> Shard_map.owner m ~shard:s = hot)
                (List.init (Shard_map.shard_count m) Fun.id)
            in
            (* Improvement guard: moving [shard] shifts its whole load
               onto the cold replica, so the move only helps when that
               load is smaller than the hot/cold gap — otherwise the
               receiver becomes the new hottest and the shard would
               ping-pong.  Candidates are filtered through the guard
               first, so when the hottest shard is itself unmovable (a
               monolithic hot shard stays put: no move can balance it)
               the policy drains the hot replica's next-hottest shard
               instead of giving up. *)
            let movable =
              List.filter
                (fun s ->
                  delta.(s) > 0
                  && delta.(s) < per_replica.(hot) - per_replica.(cold))
                owned
            in
            match
              argbest ~better:(fun a b -> delta.(a) > delta.(b)) movable
            with
            | Some shard ->
                let m' = Shard_map.move m ~shard ~to_:cold in
                if Shard_map.version m' <> Shard_map.version m then begin
                  t.moves <- t.moves + 1;
                  Stats.incr t.stats "rebalance-skew";
                  Shard_map.Coordinator.install t.coord m'
                end
            | _ -> ()
          end
        end
        else t.skew_streak <- 0)
  end

let tick t =
  let m = Shard_map.Coordinator.current t.coord in
  let k = Shard_map.replica_count m in
  let idxs = List.init k Fun.id in
  let dead = List.filter (fun r -> t.replica_health r = `Dead) idxs in
  let live = List.filter (fun r -> t.replica_health r = `Up) idxs in
  let load = t.shard_load () in
  let delta =
    Array.init (Array.length load) (fun i ->
        load.(i)
        - (if i < Array.length t.last_load then t.last_load.(i) else 0))
  in
  t.last_load <- load;
  let dead_owned =
    List.exists (fun r -> Shard_map.shards_owned m ~replica:r > 0) dead
  in
  if t.on_crash && dead_owned then begin
    t.skew_streak <- 0;
    ignore (tick_crash t m ~dead)
  end
  else if t.on_skew then tick_skew t m ~live ~delta

(* [Sim.after] rather than [Event.schedule]: experiments arm the
   controller at setup time, outside any fiber, where charging a
   [Timer_op] would block. *)
let start t ~until =
  let sim = Host.sim t.host in
  (* Baseline the cumulative load counters, so the first tick's delta
     covers one interval rather than everything since time zero. *)
  t.last_load <- t.shard_load ();
  let rec arm () =
    ignore
      (Sim.after sim t.interval (fun () ->
           if Sim.now sim <= until then begin
             tick t;
             arm ()
           end))
  in
  arm ()

let create ~host ~coord ~replica_health ~shard_load ?(interval = 0.05)
    ?(skew_ratio = 3.0) ?(on_crash = true) ?(on_skew = true) () =
  if interval <= 0. then invalid_arg "Rebalance.create: interval <= 0";
  if skew_ratio <= 1. then invalid_arg "Rebalance.create: skew_ratio <= 1";
  {
    host;
    coord;
    replica_health;
    shard_load;
    interval;
    skew_ratio;
    on_crash;
    on_skew;
    stats = Proto.stats (Shard_map.Coordinator.proto coord);
    last_load = [||];
    skew_streak = 0;
    moves = 0;
  }
