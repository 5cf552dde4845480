(* Welford, Sample, Histogram, and the aggregate helpers. *)

open Desim

let check_int = Alcotest.(check int)
let check_float eps = Alcotest.(check (float eps))

let test_welford_against_naive () =
  let values = [ 3.0; 1.5; -2.0; 8.25; 0.0; 4.5 ] in
  let w = Welford.create () in
  List.iter (Welford.add w) values;
  let n = float_of_int (List.length values) in
  let mean = List.fold_left ( +. ) 0.0 values /. n in
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 values /. n
  in
  check_float 1e-12 "mean" mean (Welford.mean w);
  check_float 1e-12 "variance" var (Welford.variance w);
  check_float 1e-12 "min" (-2.0) (Welford.min_value w);
  check_float 1e-12 "max" 8.25 (Welford.max_value w);
  check_int "count" 6 (Welford.count w)

let test_welford_empty () =
  let w = Welford.create () in
  check_float 0.0 "mean" 0.0 (Welford.mean w);
  check_float 0.0 "variance" 0.0 (Welford.variance w)

let test_welford_merge () =
  let all = Welford.create () in
  let a = Welford.create () and b = Welford.create () in
  List.iter
    (fun x ->
      Welford.add all x;
      Welford.add (if x < 3.0 then a else b) x)
    [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 ];
  let merged = Welford.merge a b in
  check_float 1e-12 "mean" (Welford.mean all) (Welford.mean merged);
  check_float 1e-12 "variance" (Welford.variance all) (Welford.variance merged);
  check_int "count" (Welford.count all) (Welford.count merged)

let test_welford_merge_with_empty () =
  let a = Welford.create () in
  Welford.add a 5.0;
  let empty = Welford.create () in
  let m = Welford.merge a empty in
  check_float 0.0 "mean" 5.0 (Welford.mean m);
  check_int "count" 1 (Welford.count m)

let test_welford_reset () =
  let w = Welford.create () in
  Welford.add w 10.0;
  Welford.reset w;
  check_int "count" 0 (Welford.count w);
  check_float 0.0 "mean" 0.0 (Welford.mean w)

let test_sample_percentiles () =
  let s = Stat.Sample.create () in
  for i = 1 to 100 do
    Stat.Sample.add s (float_of_int i)
  done;
  check_float 1e-9 "p0" 1.0 (Stat.Sample.percentile s 0.0);
  check_float 1e-9 "p100" 100.0 (Stat.Sample.percentile s 100.0);
  check_float 1e-9 "median" 50.5 (Stat.Sample.median s);
  check_float 1e-9 "p25" 25.75 (Stat.Sample.percentile s 25.0);
  check_float 1e-9 "p95" 95.05 (Stat.Sample.percentile s 95.0)

let test_sample_percentile_errors () =
  let s = Stat.Sample.create () in
  Alcotest.check_raises "empty"
    (Invalid_argument "Stat.Sample.percentile: empty sample") (fun () ->
      ignore (Stat.Sample.percentile s 50.0));
  Stat.Sample.add s 1.0;
  Alcotest.check_raises "out of range"
    (Invalid_argument "Stat.Sample.percentile: p out of [0, 100]") (fun () ->
      ignore (Stat.Sample.percentile s 101.0))

let test_sample_add_after_percentile () =
  (* Percentile sorts lazily; adding afterwards must still work. *)
  let s = Stat.Sample.create () in
  List.iter (Stat.Sample.add s) [ 3.0; 1.0; 2.0 ];
  ignore (Stat.Sample.median s);
  Stat.Sample.add s 0.5;
  check_float 1e-9 "median updated" 1.5 (Stat.Sample.median s);
  check_int "count" 4 (Stat.Sample.count s);
  check_float 1e-9 "total" 6.5 (Stat.Sample.total s)

let test_sample_values_sorted () =
  let s = Stat.Sample.create () in
  List.iter (Stat.Sample.add s) [ 3.0; 1.0; 2.0 ];
  Alcotest.(check (array (float 0.0)))
    "sorted" [| 1.0; 2.0; 3.0 |] (Stat.Sample.values s)

let test_sample_reset () =
  let s = Stat.Sample.create () in
  Stat.Sample.add s 1.0;
  Stat.Sample.reset s;
  check_int "count" 0 (Stat.Sample.count s)

let test_histogram () =
  let h = Stat.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  List.iter (Stat.Histogram.add h) [ -1.0; 0.0; 1.9; 2.0; 5.5; 9.99; 10.0; 42.0 ];
  check_int "count" 8 (Stat.Histogram.count h);
  check_int "underflow" 1 (Stat.Histogram.underflow h);
  check_int "overflow" 2 (Stat.Histogram.overflow h);
  Alcotest.(check (array int))
    "bins" [| 2; 1; 1; 0; 1 |] (Stat.Histogram.bin_counts h);
  Alcotest.(check (array (float 1e-9)))
    "edges" [| 0.0; 2.0; 4.0; 6.0; 8.0; 10.0 |] (Stat.Histogram.bin_edges h)

let test_histogram_validation () =
  Alcotest.check_raises "bins"
    (Invalid_argument "Stat.Histogram.create: bins must be > 0") (fun () ->
      ignore (Stat.Histogram.create ~lo:0.0 ~hi:1.0 ~bins:0));
  Alcotest.check_raises "range"
    (Invalid_argument "Stat.Histogram.create: lo must be < hi") (fun () ->
      ignore (Stat.Histogram.create ~lo:1.0 ~hi:1.0 ~bins:3))

let test_weighted_mean () =
  check_float 1e-12 "simple" 2.0
    (Stat.weighted_mean [ (1.0, 1.0); (3.0, 1.0) ]);
  check_float 1e-12 "weights matter" 1.5
    (Stat.weighted_mean [ (1.0, 3.0); (3.0, 1.0) ]);
  check_float 1e-12 "empty" 0.0 (Stat.weighted_mean []);
  check_float 1e-12 "zero weights" 0.0
    (Stat.weighted_mean [ (5.0, 0.0); (7.0, 0.0) ])

let test_median_of () =
  check_float 1e-12 "odd" 2.0 (Stat.median_of [ 3.0; 1.0; 2.0 ]);
  check_float 1e-12 "even" 2.5 (Stat.median_of [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.check_raises "empty"
    (Invalid_argument "Stat.median_of: empty list") (fun () ->
      ignore (Stat.median_of []))

let test_cv_and_imbalance () =
  check_float 1e-12 "cv of constant" 0.0
    (Stat.coefficient_of_variation [ 2.0; 2.0; 2.0 ]);
  check_float 1e-12 "imbalance of balanced" 1.0 (Stat.imbalance [ 2.0; 2.0 ]);
  check_float 1e-12 "imbalance skew" 1.5 (Stat.imbalance [ 1.0; 3.0; 2.0 ]);
  check_float 1e-12 "imbalance empty" 0.0 (Stat.imbalance [])

(* The log-binned estimator against the exact retained-sample answer:
   within the bin ratio (2%) on a heavy-ish latency-shaped draw, with
   min and max exact. *)
let test_quantile_vs_sample () =
  let q = Stat.Quantile.create () in
  let s = Stat.Sample.create () in
  let rng = Rng.create 3 in
  for _ = 1 to 20_000 do
    let x = Rng.exponential rng ~mean:0.05 in
    Stat.Quantile.add q x;
    Stat.Sample.add s x
  done;
  check_int "count" 20_000 (Stat.Quantile.count q);
  check_float 1e-12 "min exact" (Stat.Sample.percentile s 0.0)
    (Stat.Quantile.min_value q);
  check_float 1e-12 "max exact" (Stat.Sample.percentile s 100.0)
    (Stat.Quantile.max_value q);
  List.iter
    (fun p ->
      let exact = Stat.Sample.percentile s p in
      let approx = Stat.Quantile.percentile q p in
      if Float.abs (approx -. exact) > 0.03 *. exact then
        Alcotest.failf "p%g: estimate %g vs exact %g" p approx exact)
    [ 50.0; 90.0; 95.0; 99.0 ]

let test_quantile_edges () =
  let q = Stat.Quantile.create () in
  (match Stat.Quantile.percentile q 50.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty estimator must raise");
  Stat.Quantile.add q 0.25;
  check_float 1e-12 "single value p50" 0.25 (Stat.Quantile.percentile q 50.0);
  check_float 1e-12 "single value p99" 0.25 (Stat.Quantile.percentile q 99.0);
  (* below the binned range: clamped to the exact min, not the floor *)
  Stat.Quantile.add q 1e-9;
  check_float 1e-12 "underflow clamps to min" 1e-9
    (Stat.Quantile.percentile q 10.0);
  match Stat.Quantile.percentile q 101.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "p out of range must raise"

let prop_quantile_in_range =
  QCheck.Test.make ~count:200 ~name:"quantile estimate stays in [min, max]"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 60) (float_bound_exclusive 1000.0))
        (float_bound_inclusive 100.0))
    (fun (values, p) ->
      let q = Stat.Quantile.create () in
      List.iter (fun x -> Stat.Quantile.add q (x +. 1e-6)) values;
      let est = Stat.Quantile.percentile q p in
      Stat.Quantile.min_value q <= est && est <= Stat.Quantile.max_value q)

(* The sketch as it was before its bins went lazy: bins allocated at
   creation, and merging pairwise into fresh sketches, the way per-set
   latency sketches used to be folded. *)
module Eager_quantile = struct
  type t = {
    log_lo : float;
    log_ratio : float;
    bins : int array;
    mutable underflow : int;
    mutable overflow : int;
    mutable count : int;
    mutable min_seen : float;
    mutable max_seen : float;
  }

  let lo = 1e-6

  let create () =
    {
      log_lo = Float.log lo;
      log_ratio = Float.log 1.02;
      bins = Array.make 1400 0;
      underflow = 0;
      overflow = 0;
      count = 0;
      min_seen = Float.infinity;
      max_seen = Float.neg_infinity;
    }

  let add t x =
    t.count <- t.count + 1;
    if x < t.min_seen then t.min_seen <- x;
    if x > t.max_seen then t.max_seen <- x;
    if x < lo then t.underflow <- t.underflow + 1
    else begin
      let idx = int_of_float ((Float.log x -. t.log_lo) /. t.log_ratio) in
      if idx >= Array.length t.bins then t.overflow <- t.overflow + 1
      else t.bins.(idx) <- t.bins.(idx) + 1
    end

  let merge a b =
    {
      a with
      bins =
        Array.init (Array.length a.bins) (fun i -> a.bins.(i) + b.bins.(i));
      underflow = a.underflow + b.underflow;
      overflow = a.overflow + b.overflow;
      count = a.count + b.count;
      min_seen = Float.min a.min_seen b.min_seen;
      max_seen = Float.max a.max_seen b.max_seen;
    }

  let percentile t p =
    let rank =
      Stdlib.max 1
        (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.count)))
    in
    if rank <= t.underflow then t.min_seen
    else begin
      let cum = ref t.underflow and result = ref None in
      Array.iteri
        (fun i c ->
          cum := !cum + c;
          if !result = None && !cum >= rank then
            let mid =
              Float.exp (t.log_lo +. ((float_of_int i +. 0.5) *. t.log_ratio))
            in
            result := Some (Float.min t.max_seen (Float.max t.min_seen mid)))
        t.bins;
      Option.value ~default:t.max_seen !result
    end
end

(* Below [lo] (underflow), inside the bins, and past the last bin
   (overflow): every branch of [add]. *)
let gen_latency =
  QCheck.Gen.(
    frequency
      [
        (1, map (fun x -> -.x) (float_bound_inclusive 1.0));
        (1, float_bound_exclusive 1e-6);
        (6, map (fun x -> 1e-6 +. x) (float_bound_exclusive 1000.0));
        (1, map (fun x -> 2e6 +. x) (float_bound_exclusive 1e9));
      ])

let prop_lazy_quantile_matches_eager =
  QCheck.Test.make ~count:300
    ~name:"lazy quantile bins and merge_into equal the eager sketch"
    (QCheck.make
       ~print:QCheck.Print.(list (list float))
       QCheck.Gen.(list_size (1 -- 6) (list_size (0 -- 40) gen_latency)))
    (fun sets ->
      let same_bits a b =
        Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      in
      let agrees lz eg =
        Stat.Quantile.count lz = eg.Eager_quantile.count
        && same_bits (Stat.Quantile.min_value lz) eg.Eager_quantile.min_seen
        && same_bits (Stat.Quantile.max_value lz) eg.Eager_quantile.max_seen
        && (eg.Eager_quantile.count = 0
           || List.for_all
                (fun p ->
                  same_bits
                    (Stat.Quantile.percentile lz p)
                    (Eager_quantile.percentile eg p))
                [ 0.0; 1.0; 10.0; 50.0; 90.0; 95.0; 99.0; 100.0 ])
      in
      let lazies =
        List.map
          (fun vs ->
            let q = Stat.Quantile.create () in
            List.iter (Stat.Quantile.add q) vs;
            q)
          sets
      in
      let eagers =
        List.map
          (fun vs ->
            let q = Eager_quantile.create () in
            List.iter (Eager_quantile.add q) vs;
            q)
          sets
      in
      let merged = Stat.Quantile.create () in
      List.iter (Stat.Quantile.merge_into ~into:merged) lazies;
      let eager_merged =
        List.fold_left Eager_quantile.merge (List.hd eagers) (List.tl eagers)
      in
      List.for_all2 agrees lazies eagers && agrees merged eager_merged)

let prop_percentile_monotone =
  QCheck.Test.make ~count:200 ~name:"percentile is monotone in p"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 50) (float_bound_exclusive 100.0))
        (pair (float_bound_inclusive 100.0) (float_bound_inclusive 100.0)))
    (fun (values, (p1, p2)) ->
      let s = Stat.Sample.create () in
      List.iter (Stat.Sample.add s) values;
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stat.Sample.percentile s lo <= Stat.Sample.percentile s hi +. 1e-9)

let prop_welford_merge_commutes =
  QCheck.Test.make ~count:200 ~name:"welford merge is order independent"
    QCheck.(
      pair
        (list (float_bound_exclusive 100.0))
        (list (float_bound_exclusive 100.0)))
    (fun (xs, ys) ->
      let build vs =
        let w = Welford.create () in
        List.iter (Welford.add w) vs;
        w
      in
      let ab = Welford.merge (build xs) (build ys) in
      let ba = Welford.merge (build ys) (build xs) in
      Float.abs (Welford.mean ab -. Welford.mean ba) < 1e-9
      && Float.abs (Welford.variance ab -. Welford.variance ba) < 1e-9)

let suite =
  [
    Alcotest.test_case "welford vs naive" `Quick test_welford_against_naive;
    Alcotest.test_case "welford empty" `Quick test_welford_empty;
    Alcotest.test_case "welford merge" `Quick test_welford_merge;
    Alcotest.test_case "welford merge empty" `Quick test_welford_merge_with_empty;
    Alcotest.test_case "welford reset" `Quick test_welford_reset;
    Alcotest.test_case "sample percentiles" `Quick test_sample_percentiles;
    Alcotest.test_case "percentile errors" `Quick test_sample_percentile_errors;
    Alcotest.test_case "add after percentile" `Quick
      test_sample_add_after_percentile;
    Alcotest.test_case "values sorted" `Quick test_sample_values_sorted;
    Alcotest.test_case "sample reset" `Quick test_sample_reset;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "histogram validation" `Quick test_histogram_validation;
    Alcotest.test_case "quantile vs exact sample" `Quick
      test_quantile_vs_sample;
    Alcotest.test_case "quantile edges" `Quick test_quantile_edges;
    Alcotest.test_case "weighted mean" `Quick test_weighted_mean;
    Alcotest.test_case "median_of" `Quick test_median_of;
    Alcotest.test_case "cv and imbalance" `Quick test_cv_and_imbalance;
    QCheck_alcotest.to_alcotest prop_quantile_in_range;
    QCheck_alcotest.to_alcotest prop_lazy_quantile_matches_eager;
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
    QCheck_alcotest.to_alcotest prop_welford_merge_commutes;
  ]
