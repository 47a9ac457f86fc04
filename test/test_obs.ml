(* Tests for the observability layer: the zero-dependency JSON
   emitter/parser, fixed-bucket histograms, the metrics registry, and
   the Chrome trace_event writer. *)

open Tbtso_obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_render () =
  check_string "scalars" {|[null,true,false,42,-7,"hi"]|}
    (Json.to_string
       (Json.List
          [ Json.Null; Json.Bool true; Json.Bool false; Json.Int 42;
            Json.Int (-7); Json.String "hi" ]));
  check_string "nested object" {|{"a":1,"b":{"c":[]}}|}
    (Json.to_string
       (Json.Obj [ ("a", Json.Int 1); ("b", Json.Obj [ ("c", Json.List []) ]) ]));
  check_string "escapes" "\"q\\\" b\\\\ n\\n r\\r t\\t c\\u0001\""
    (Json.to_string (Json.String "q\" b\\ n\n r\r t\t c\x01"));
  (* UTF-8 passes through unescaped. *)
  check_string "utf8 passthrough" "\"\xce\x94\"" (Json.to_string (Json.String "Δ"))

let test_json_floats () =
  check_string "integral float keeps a point" "1.0" (Json.to_string (Json.Float 1.0));
  check_string "fraction survives round-trip" "0.5" (Json.to_string (Json.Float 0.5));
  check_string "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  check_string "infinity is null" "null" (Json.to_string (Json.Float Float.infinity));
  (* %.17g must round-trip any finite double. *)
  let f = 0.1 +. 0.2 in
  match Json.of_string (Json.to_string (Json.Float f)) with
  | Json.Float g -> Alcotest.(check (float 0.0)) "exact round-trip" f g
  | _ -> Alcotest.fail "expected a float"

let test_json_obj_drops_null () =
  check_string "null fields dropped" {|{"a":1}|}
    (Json.to_string (Json.obj [ ("a", Json.Int 1); ("b", Json.Null) ]));
  check_string "explicit Obj keeps null" {|{"b":null}|}
    (Json.to_string (Json.Obj [ ("b", Json.Null) ]))

let test_json_parse_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-123);
      Json.Float 2.5;
      Json.String "with \"quotes\" and \n newline";
      Json.List [ Json.Int 1; Json.List []; Json.Obj [] ];
      Json.Obj
        [
          ("k", Json.String "v");
          ("nested", Json.List [ Json.Bool true; Json.Null ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      check_bool
        (Printf.sprintf "round-trip %s" (Json.to_string v))
        true
        (Json.of_string (Json.to_string v) = v))
    samples

let test_json_parse_details () =
  check_bool "whitespace tolerated" true
    (Json.of_string " { \"a\" : [ 1 , 2 ] } "
    = Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]) ]);
  check_bool "unicode escape" true
    (Json.of_string "\"\\u0041\\u00e9\"" = Json.String "A\xc3\xa9");
  check_bool "exponent is a float" true (Json.of_string "1e2" = Json.Float 100.0);
  check_bool "plain integer stays int" true (Json.of_string "100" = Json.Int 100);
  List.iter
    (fun bad ->
      check_bool
        (Printf.sprintf "%S rejected" bad)
        true
        (match Json.of_string bad with
        | exception Json.Parse_error _ -> true
        | _ -> false))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ]

let test_json_surrogates () =
  (* A surrogate pair decodes to ONE supplementary-plane code point
     (4-byte UTF-8), never to two 3-byte CESU-8 halves. *)
  check_bool "U+1F600 from pair" true
    (Json.of_string "\"\\ud83d\\ude00\"" = Json.String "\xf0\x9f\x98\x80");
  check_bool "U+10437 from pair" true
    (Json.of_string "\"\\uD801\\uDC37\"" = Json.String "\xf0\x90\x90\xb7");
  check_bool "pair between text" true
    (Json.of_string "\"a\\ud83d\\ude00b\"" = Json.String "a\xf0\x9f\x98\x80b");
  List.iter
    (fun bad ->
      check_bool
        (Printf.sprintf "%S rejected" bad)
        true
        (match Json.of_string bad with
        | exception Json.Parse_error _ -> true
        | _ -> false))
    [
      "\"\\ud800\"" (* lone high *);
      "\"\\udc00\"" (* lone low *);
      "\"\\ud800x\"" (* high then plain char *);
      "\"\\ud800\\u0041\"" (* high then non-surrogate escape *);
      "\"\\ud800\\ud800\"" (* high then another high *);
      "\"\\ud83d\\ude\"" (* truncated low half *);
    ]

(* --- qcheck: every scalar value round-trips through its \u escape --- *)

let utf8_of_cp cp =
  let b = Buffer.create 4 in
  (if cp < 0x80 then Buffer.add_char b (Char.chr cp)
   else if cp < 0x800 then begin
     Buffer.add_char b (Char.chr (0xc0 lor (cp lsr 6)));
     Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
   end
   else if cp < 0x10000 then begin
     Buffer.add_char b (Char.chr (0xe0 lor (cp lsr 12)));
     Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
     Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
   end
   else begin
     Buffer.add_char b (Char.chr (0xf0 lor (cp lsr 18)));
     Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
     Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
     Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
   end);
  Buffer.contents b

let escape_of_cp cp =
  if cp < 0x10000 then Printf.sprintf "\\u%04x" cp
  else
    let u = cp - 0x10000 in
    Printf.sprintf "\\u%04x\\u%04x" (0xd800 lor (u lsr 10))
      (0xdc00 lor (u land 0x3ff))

(* Unicode scalar values: every UTF-8 width, surrogates excluded. *)
let cp_gen =
  QCheck.Gen.(
    oneof
      [
        int_range 0x0000 0x007f;
        int_range 0x0080 0x07ff;
        int_range 0x0800 0xd7ff;
        int_range 0xe000 0xffff;
        int_range 0x10000 0x10ffff;
      ])

let cp_arb = QCheck.make ~print:(Printf.sprintf "U+%04X") cp_gen

let prop_unicode_escape_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"\\u escape decodes to the code point's UTF-8"
    cp_arb (fun cp ->
      let expect = Json.String (utf8_of_cp cp) in
      Json.of_string ("\"" ^ escape_of_cp cp ^ "\"") = expect
      (* and the emitter's output (escaped or passed through) parses
         back to the same bytes *)
      && Json.of_string (Json.to_string expect) = expect)

let test_json_member () =
  let v = Json.Obj [ ("a", Json.Int 1) ] in
  check_bool "hit" true (Json.member "a" v = Some (Json.Int 1));
  check_bool "miss" true (Json.member "b" v = None);
  check_bool "non-object" true (Json.member "a" (Json.Int 3) = None)

(* ------------------------------------------------------------------ *)
(* Hist                                                                *)
(* ------------------------------------------------------------------ *)

let test_hist_basics () =
  let h = Hist.create ~buckets:10 ~width:5 () in
  List.iter (Hist.observe h) [ 3; 7; 7; 12; 49; -4 ];
  check_int "count" 6 (Hist.count h);
  check_int "sum (negative clamped)" 78 (Hist.sum h);
  check_int "min" 0 (Hist.min_value h);
  check_int "max" 49 (Hist.max_value h);
  Alcotest.(check (float 0.001)) "mean" 13.0 (Hist.mean h);
  Hist.clear h;
  check_int "cleared" 0 (Hist.count h);
  check_int "cleared max" 0 (Hist.max_value h)

let test_hist_percentiles () =
  let h = Hist.create ~buckets:100 ~width:1 () in
  for v = 1 to 100 do
    Hist.observe h v
  done;
  (* width-1 buckets: the reported upper edge is the value itself. *)
  check_int "p50" 50 (Hist.percentile h 0.5);
  check_int "p99" 99 (Hist.percentile h 0.99);
  check_int "p0 is min bucket" 1 (Hist.percentile h 0.0);
  check_int "p100 is max" 100 (Hist.percentile h 1.0);
  check_bool "bad quantile rejected" true
    (match Hist.percentile h 1.5 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- qcheck: percentiles vs exact nearest rank --- *)

let hist_print (buckets, width, vals) =
  Printf.sprintf "buckets=%d width=%d vals=[%s]" buckets width
    (String.concat ";" (List.map string_of_int vals))

let hist_gen ~overflow =
  QCheck.Gen.(
    let* buckets = int_range 1 20 in
    let* width = int_range 1 10 in
    let hi = (buckets * width * if overflow then 3 else 1) - 1 in
    let+ vals = list_size (int_range 1 50) (int_range 0 hi) in
    (buckets, width, vals))

let quantiles = [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ]

let exact_nearest_rank vals q =
  let sorted = List.sort compare vals in
  let n = List.length vals in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  List.nth sorted (rank - 1)

(* Without overflow every value has a real bucket, so the reported
   upper edge is within one bucket width of the exact quantile. *)
let prop_percentile_accuracy =
  QCheck.Test.make ~count:500
    ~name:"bucketed percentile within one width of exact nearest rank"
    (QCheck.make ~print:hist_print (hist_gen ~overflow:false))
    (fun (buckets, width, vals) ->
      let h = Hist.create ~buckets ~width () in
      List.iter (Hist.observe h) vals;
      List.for_all
        (fun q ->
          let p = Hist.percentile h q in
          let e = exact_nearest_rank vals q in
          p >= e && p - e < width)
        quantiles)

(* With overflow the error is unbounded, but the clamp still pins every
   quantile inside the observed extremes. *)
let prop_percentile_clamped =
  QCheck.Test.make ~count:500
    ~name:"percentile always within [min_value, max_value]"
    (QCheck.make ~print:hist_print (hist_gen ~overflow:true))
    (fun (buckets, width, vals) ->
      let h = Hist.create ~buckets ~width () in
      List.iter (Hist.observe h) vals;
      List.for_all
        (fun q ->
          let p = Hist.percentile h q in
          p >= Hist.min_value h && p <= Hist.max_value h)
        quantiles)

let test_hist_overflow_exact_max () =
  let h = Hist.create ~buckets:4 ~width:10 () in
  Hist.observe h 2;
  Hist.observe h 1_000_000;
  (* The overflow bucket still reports the exact maximum, so Δ-bound
     assertions carry no bucketing error. *)
  check_int "exact max" 1_000_000 (Hist.max_value h);
  check_int "overflow percentile is exact max" 1_000_000 (Hist.percentile h 0.99);
  let b = Hist.buckets h in
  check_int "overflow bucket last" 1 b.(Array.length b - 1)

(* Each value lands in bucket [min (v / width) buckets], the overflow
   bucket last, at both edges of every bucket it can reach. *)
let test_hist_bucket_edges () =
  let buckets = 64 in
  List.iter
    (fun width ->
      let edges =
        [ 0; width - 1; width; width + 1; (2 * width) - 1; buckets * width - 1; buckets * width;
          (buckets * width) + 1; 10 * buckets * width ]
      in
      List.iter
        (fun v ->
          let h = Hist.create ~buckets ~width () in
          Hist.observe h v;
          let expected = Array.make (buckets + 1) 0 in
          expected.(Int.min (v / width) buckets) <- 1;
          Alcotest.(check (array int)) (Printf.sprintf "width %d, v %d" width v) expected (Hist.buckets h))
        edges)
    [ 1; 3; 782 ]

let test_hist_merge () =
  let a = Hist.create ~buckets:8 ~width:2 () in
  let b = Hist.create ~buckets:8 ~width:2 () in
  Hist.observe a 1;
  Hist.observe b 9;
  let m = Hist.merge a b in
  check_int "merged count" 2 (Hist.count m);
  check_int "merged min" 1 (Hist.min_value m);
  check_int "merged max" 9 (Hist.max_value m);
  check_int "merge leaves inputs alone" 1 (Hist.count a);
  let other = Hist.create ~buckets:4 ~width:2 () in
  check_bool "shape mismatch rejected" true
    (match Hist.merge a other with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_hist_json () =
  let h = Hist.create ~buckets:64 ~width:1 () in
  List.iter (Hist.observe h) [ 0; 1; 1; 3 ];
  let j = Hist.to_json h in
  check_bool "count" true (Json.member "count" j = Some (Json.Int 4));
  check_bool "max" true (Json.member "max" j = Some (Json.Int 3));
  (match Json.member "buckets" j with
  | Some (Json.List l) -> check_int "trailing zeros trimmed" 4 (List.length l)
  | _ -> Alcotest.fail "buckets missing");
  check_bool "emits valid json" true (Json.of_string (Json.to_string j) = j)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_registry () =
  let r = Metrics.create () in
  let c = Metrics.counter r "states" in
  Metrics.incr c;
  Metrics.add c 10;
  check_int "counter" 11 (Metrics.counter_value c);
  (* Find-or-register: the same name aliases the same cell. *)
  Metrics.incr (Metrics.counter r "states");
  check_int "aliased" 12 (Metrics.counter_value c);
  let g = Metrics.gauge r "frontier" in
  Metrics.set_max g 5.0;
  Metrics.set_max g 3.0;
  Alcotest.(check (float 0.0)) "high watermark" 5.0 (Metrics.gauge_value g);
  Metrics.set g 1.0;
  Alcotest.(check (float 0.0)) "set overrides" 1.0 (Metrics.gauge_value g);
  let h = Metrics.histogram r "res" in
  Hist.observe h 7;
  check_int "histogram aliased" 1 (Hist.count (Metrics.histogram r "res"));
  check_bool "kind clash rejected" true
    (match Metrics.counter r "frontier" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_metrics_hist_shape () =
  let r = Metrics.create () in
  let h = Metrics.histogram r ~buckets:8 ~width:4 "res" in
  Hist.observe h 3;
  (* Re-registration with matching or omitted shape aliases the cell. *)
  check_int "matching shape aliases" 1
    (Hist.count (Metrics.histogram r ~buckets:8 ~width:4 "res"));
  check_int "omitted shape aliases" 1 (Hist.count (Metrics.histogram r "res"));
  check_int "partial shape aliases" 1
    (Hist.count (Metrics.histogram r ~width:4 "res"));
  (* A mismatched explicit shape would silently observe into the wrong
     buckets — it must raise instead. *)
  let rejects ?buckets ?width what =
    check_bool what true
      (match Metrics.histogram r ?buckets ?width "res" with
      | exception Invalid_argument _ -> true
      | _ -> false)
  in
  rejects ~buckets:16 "bucket mismatch rejected";
  rejects ~width:2 "width mismatch rejected";
  rejects ~buckets:8 ~width:2 "mixed mismatch rejected"

let test_metrics_json () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter r "b") 2;
  Metrics.add (Metrics.counter r "a") 1;
  Metrics.set (Metrics.gauge r "g") 0.5;
  let j = Metrics.to_json r in
  check_string "sorted, sectioned"
    {|{"counters":{"a":1,"b":2},"gauges":{"g":0.5}}|}
    (Json.to_string j);
  (* Empty registry renders as an empty object (all sections dropped). *)
  check_string "empty" "{}" (Json.to_string (Metrics.to_json (Metrics.create ())))

(* ------------------------------------------------------------------ *)
(* Chrome                                                              *)
(* ------------------------------------------------------------------ *)

let test_chrome_writer () =
  let path = Filename.temp_file "tbtso_chrome" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let w = Chrome.to_channel oc in
      Chrome.emit w (Chrome.process_name ~pid:0 "tsim");
      Chrome.emit w (Chrome.thread_name ~pid:0 ~tid:1 "thread 1");
      Chrome.emit w (Chrome.instant ~name:"load" ~pid:0 ~tid:1 ~ts:0.5 ());
      Chrome.emit w
        (Chrome.complete ~name:"buffered" ~cat:"store-buffer" ~pid:0 ~tid:1
           ~ts:1.0 ~dur:2.5
           ~args:[ ("age_ticks", Json.Int 250) ]
           ());
      Chrome.emit w (Chrome.counter ~name:"depth" ~pid:0 ~ts:1.0 [ ("t1", 3.0) ]);
      (* Open-ended interval: a B/E pair for events whose end is not
         known when the begin record is written. *)
      Chrome.emit w
        (Chrome.duration_begin ~name:"drain" ~pid:0 ~tid:1 ~ts:2.0
           ~args:[ ("pending", Json.Int 2) ]
           ());
      Chrome.emit w (Chrome.duration_end ~name:"drain" ~pid:0 ~tid:1 ~ts:4.0 ());
      Chrome.close w;
      close_out oc;
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Json.member "traceEvents" (Json.of_string text) with
      | Some (Json.List evs) ->
          check_int "all events present" 7 (List.length evs);
          let phases =
            List.filter_map (fun e -> Json.member "ph" e) evs
            |> List.map (function Json.String s -> s | _ -> "?")
          in
          check_bool "phases" true (phases = [ "M"; "M"; "i"; "X"; "C"; "B"; "E" ])
      | _ -> Alcotest.fail "not a trace_event document")

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "render" `Quick test_json_render;
          Alcotest.test_case "floats" `Quick test_json_floats;
          Alcotest.test_case "obj drops null" `Quick test_json_obj_drops_null;
          Alcotest.test_case "parse round-trip" `Quick test_json_parse_roundtrip;
          Alcotest.test_case "parse details" `Quick test_json_parse_details;
          Alcotest.test_case "surrogate pairs" `Quick test_json_surrogates;
          QCheck_alcotest.to_alcotest prop_unicode_escape_roundtrip;
          Alcotest.test_case "member" `Quick test_json_member;
        ] );
      ( "hist",
        [
          Alcotest.test_case "basics" `Quick test_hist_basics;
          Alcotest.test_case "percentiles" `Quick test_hist_percentiles;
          Alcotest.test_case "overflow exact max" `Quick test_hist_overflow_exact_max;
          Alcotest.test_case "bucket edges" `Quick test_hist_bucket_edges;
          QCheck_alcotest.to_alcotest prop_percentile_accuracy;
          QCheck_alcotest.to_alcotest prop_percentile_clamped;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          Alcotest.test_case "to_json" `Quick test_hist_json;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "histogram shape guard" `Quick
            test_metrics_hist_shape;
          Alcotest.test_case "to_json" `Quick test_metrics_json;
        ] );
      ( "chrome",
        [ Alcotest.test_case "writer" `Quick test_chrome_writer ] );
    ]
