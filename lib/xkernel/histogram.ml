(* HdrHistogram-style layout: bucket [b] covers values with the same
   highest set bit, split into 2^sub_bits linear sub-buckets, all
   flattened into one counts array.  Bucket 0 is fully linear
   (values 0 .. sub_count-1); every later bucket uses only its upper
   half (sub in [half, sub_count)), so consecutive buckets tile the
   value range without overlap. *)

(* 2^8 sub-buckets per bucket: under 0.8% relative error. *)
let sub_bits = 8
let sub_count = 1 lsl sub_bits
let half = sub_count / 2

(* Values up to 10^8 (100 s in microseconds) are tracked: [n_buckets]
   is the fewest buckets that reach it, and [h_max] the highest value
   they hold. *)
let n_buckets =
  let n = ref 1 in
  while (sub_count lsl (!n - 1)) - 1 < 100_000_000 do incr n done;
  !n

let h_max = (sub_count lsl (n_buckets - 1)) - 1

(* The running sum of recorded values.  A float field of a mixed record
   is boxed, so storing into one would allocate on every [record]; an
   all-float record stores it unboxed. *)
type acc = { mutable sum : float }

type t = {
  counts : int array;
  mutable total : int;
  mutable n_clamped : int;
  mutable v_min : int;
  mutable v_max : int;
  acc : acc;
}

let create () =
  {
    counts = Array.make ((n_buckets + 1) * half) 0;
    total = 0;
    n_clamped = 0;
    v_min = max_int;
    v_max = 0;
    acc = { sum = 0. };
  }

(* Position of the highest set bit of [v] > 0. *)
let msb v =
  let v = ref v and n = ref 0 in
  if !v >= 1 lsl 32 then begin v := !v lsr 32; n := !n + 32 end;
  if !v >= 1 lsl 16 then begin v := !v lsr 16; n := !n + 16 end;
  if !v >= 1 lsl 8 then begin v := !v lsr 8; n := !n + 8 end;
  if !v >= 1 lsl 4 then begin v := !v lsr 4; n := !n + 4 end;
  if !v >= 1 lsl 2 then begin v := !v lsr 2; n := !n + 2 end;
  if !v >= 2 then incr n;
  !n

let index_of v =
  if v < sub_count then v
  else
    let bucket = msb v - (sub_bits - 1) in
    (bucket * half) + (v lsr bucket)

(* Highest value that lands in counts slot [idx]. *)
let highest_at idx =
  if idx < sub_count then idx
  else
    let bucket = (idx / half) - 1 in
    let sub = idx - (bucket * half) in
    ((sub + 1) lsl bucket) - 1

let record t v =
  if v < 0 then invalid_arg "Histogram.record: negative value";
  let v =
    if v > h_max then begin
      t.n_clamped <- t.n_clamped + 1;
      h_max
    end
    else v
  in
  t.counts.(index_of v) <- t.counts.(index_of v) + 1;
  t.total <- t.total + 1;
  t.acc.sum <- t.acc.sum +. float_of_int v;
  if v < t.v_min then t.v_min <- v;
  if v > t.v_max then t.v_max <- v

let count t = t.total
let min_value t = if t.total = 0 then 0 else t.v_min
let mean t = if t.total = 0 then 0. else t.acc.sum /. float_of_int t.total

let percentile t p =
  if p < 0. || p > 100. then invalid_arg "Histogram.percentile";
  if t.total = 0 then 0
  else begin
    let target =
      max 1 (int_of_float (ceil (p /. 100. *. float_of_int t.total)))
    in
    let seen = ref 0 and idx = ref 0 in
    while !seen < target do
      seen := !seen + t.counts.(!idx);
      incr idx
    done;
    highest_at (!idx - 1)
  end

let merge_into ~src ~dst =
  Array.iteri (fun i n -> dst.counts.(i) <- dst.counts.(i) + n) src.counts;
  dst.total <- dst.total + src.total;
  dst.n_clamped <- dst.n_clamped + src.n_clamped;
  dst.acc.sum <- dst.acc.sum +. src.acc.sum;
  if src.total > 0 then begin
    if src.v_min < dst.v_min then dst.v_min <- src.v_min;
    if src.v_max > dst.v_max then dst.v_max <- src.v_max
  end

let to_json t =
  Json.Obj
    [
      ("count", Json.Int t.total);
      ("clamped", Json.Int t.n_clamped);
      ("min", Json.Int (min_value t));
      ("max", Json.Int t.v_max);
      ("mean", Json.Float (mean t));
      ("p50", Json.Int (percentile t 50.));
      ("p90", Json.Int (percentile t 90.));
      ("p99", Json.Int (percentile t 99.));
      ("p999", Json.Int (percentile t 99.9));
    ]
