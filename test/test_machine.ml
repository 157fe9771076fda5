(** Tests for the execution substrate: cache behaviour, cost accounting,
    allocation, and memory-safety faults. *)

open Dcir_machine

let test_cache_lru () =
  (* 2-way, 2 sets, 16B lines: lines 0 and 2 map to set 0. *)
  let c = Cache.create ~name:"t" ~size_bytes:64 ~assoc:2 ~line_bytes:16 in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0);
  Alcotest.(check bool) "hit" true (Cache.access c 4);
  Alcotest.(check bool) "second line miss" false (Cache.access c 32);
  Alcotest.(check bool) "both resident" true (Cache.access c 0);
  (* Third line in set 0 evicts LRU (line 32, since 0 was just touched). *)
  Alcotest.(check bool) "evicting miss" false (Cache.access c 64);
  Alcotest.(check bool) "line 0 kept" true (Cache.access c 0);
  Alcotest.(check bool) "line 32 evicted" false (Cache.access c 32)

let test_cache_counters () =
  let c = Cache.create ~name:"t" ~size_bytes:64 ~assoc:2 ~line_bytes:16 in
  ignore (Cache.access c 0);
  ignore (Cache.access c 0);
  Alcotest.(check int) "accesses" 2 c.accesses;
  Alcotest.(check int) "misses" 1 c.misses;
  Alcotest.(check (float 1e-9)) "rate" 0.5 (Cache.miss_rate c);
  Cache.reset c;
  Alcotest.(check int) "reset" 0 c.accesses

(* Reset must return the cache to its freshly created state. It used to
   keep the old LRU stamps: after a reset, both ways of set 0 carried
   stamps above the new tick, so the accesses 0, 32, 0, 32 kept evicting
   each other and all four missed. *)
let test_cache_reset_fresh () =
  let fresh_pattern c = List.map (Cache.access c) [ 0; 32; 0; 32 ] in
  let fresh = Cache.create ~name:"t" ~size_bytes:64 ~assoc:2 ~line_bytes:16 in
  let expect = fresh_pattern fresh in
  Alcotest.(check (list bool)) "fresh cache" [ false; false; true; true ] expect;
  let c = Cache.create ~name:"t" ~size_bytes:64 ~assoc:2 ~line_bytes:16 in
  List.iter (fun a -> ignore (Cache.access c a)) [ 0; 32; 16; 48; 0; 32 ];
  Cache.reset c;
  Alcotest.(check int) "accesses zeroed" 0 c.accesses;
  Alcotest.(check int) "misses zeroed" 0 c.misses;
  Alcotest.(check (list bool)) "after reset" expect (fresh_pattern c)

(* Naive reference: per set, the resident lines most recently used first. *)
let reference_lru ~sets ~assoc ~line_bytes =
  let tbl = Array.make sets [] in
  fun addr ->
    let line = addr / line_bytes in
    let set = line mod sets in
    let resident = tbl.(set) in
    let hit = List.mem line resident in
    let rest = List.filter (fun l -> l <> line) resident in
    tbl.(set) <- List.filteri (fun i _ -> i < assoc) (line :: rest);
    hit

(* The real hierarchy's geometry (Machine.create). *)
let geometries =
  [ ("L1", 32 * 1024, 8); ("L2", 1024 * 1024, 16); ("L3", 22 * 1024 * 1024, 11) ]

let test_cache_matches_reference () =
  let rng = Random.State.make [| 20231 |] in
  List.iter
    (fun (name, size_bytes, assoc) ->
      let line_bytes = 64 in
      let sets = size_bytes / line_bytes / assoc in
      (* Addresses crowd a few sets with up to twice [assoc] distinct
         lines each (so evictions happen), mixed with scattered ones. *)
      let gen_addr () =
        if Random.State.int rng 4 = 0 then Random.State.int rng ((1 lsl 30) - 1)
        else
          let line =
            Random.State.int rng 3 + (sets * Random.State.int rng (2 * assoc))
          in
          (line * line_bytes) + Random.State.int rng line_bytes
      in
      let c = Cache.create ~name ~size_bytes ~assoc ~line_bytes in
      let check_against_fresh_reference phase =
        let reference = reference_lru ~sets ~assoc ~line_bytes in
        for k = 1 to 4000 do
          let addr = gen_addr () in
          let want = reference addr in
          let got = Cache.access c addr in
          if got <> want then
            Alcotest.failf "%s %s: access %d (address %d): got %b, reference %b"
              name phase k addr got want
        done
      in
      for trial = 1 to 5 do
        check_against_fresh_reference (Printf.sprintf "trial %d fresh" trial);
        Cache.reset c;
        check_against_fresh_reference (Printf.sprintf "trial %d after reset" trial);
        Cache.reset c
      done)
    geometries

(* Creating (or forking) a machine must not build the whole cache model:
   the L3 alone used to allocate about 5.8 MB of tags and stamps. *)
let test_machine_create_small () =
  (* The runtime folds direct major-heap allocations into the counters
     lazily; a full major collection on each side flushes them, so the
     delta holds exactly what [f] allocated. *)
  let allocated f =
    Gc.full_major ();
    let before = Gc.allocated_bytes () in
    let r = f () in
    Gc.full_major ();
    let after = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity r);
    after -. before
  in
  let m = Machine.create () in
  List.iter
    (fun (what, bytes) ->
      if bytes >= 1_000_000.0 then
        Alcotest.failf "%s allocated %.0f bytes (limit 1 MB)" what bytes)
    [
      ("Machine.create", allocated (fun () -> Machine.create ()));
      ("Machine.fork", allocated (fun () -> Machine.fork m));
    ]

let test_hierarchy_costs () =
  let m = Machine.create () in
  let b =
    Machine.alloc m ~storage:Machine.Heap ~elems:16 ~elem_bytes:8
      ~zero_init:(Value.VFloat 0.0)
  in
  let before = (Machine.metrics m).cycles in
  ignore (Machine.load m b 0);
  let miss_cost = (Machine.metrics m).cycles -. before in
  let before = (Machine.metrics m).cycles in
  ignore (Machine.load m b 1);
  let hit_cost = (Machine.metrics m).cycles -. before in
  Alcotest.(check bool) "miss costs more than hit" true (miss_cost > hit_cost);
  Alcotest.(check int) "one l1 miss" 1 (Machine.metrics m).l1_misses;
  Alcotest.(check int) "two loads" 2 (Machine.metrics m).loads

let test_register_free () =
  let m = Machine.create () in
  let b =
    Machine.alloc m ~storage:Machine.Register ~elems:1 ~elem_bytes:8
      ~zero_init:(Value.VInt 0)
  in
  Machine.store m b 0 (Value.VInt 42);
  Alcotest.(check int) "register loads uncounted" 0 (Machine.metrics m).loads;
  Alcotest.(check (float 0.0)) "free" 0.0 (Machine.metrics m).cycles;
  Alcotest.(check int) "value" 42 (Value.as_int (Machine.load m b 0))

let test_alloc_costs () =
  let m = Machine.create () in
  let _ =
    Machine.alloc m ~storage:Machine.Heap ~elems:1024 ~elem_bytes:8
      ~zero_init:(Value.VFloat 0.0)
  in
  Alcotest.(check bool) "heap alloc charged" true ((Machine.metrics m).cycles > 0.0);
  Alcotest.(check int) "counted" 1 (Machine.metrics m).heap_allocs;
  let before = (Machine.metrics m).cycles in
  let _ =
    Machine.alloc m ~storage:Machine.Stack ~elems:1024 ~elem_bytes:8
      ~zero_init:(Value.VFloat 0.0)
  in
  Alcotest.(check (float 0.0)) "stack free" before (Machine.metrics m).cycles

let test_faults () =
  let m = Machine.create () in
  let b =
    Machine.alloc m ~storage:Machine.Heap ~elems:4 ~elem_bytes:8
      ~zero_init:(Value.VInt 0)
  in
  (try
     ignore (Machine.load m b 4);
     Alcotest.fail "expected out-of-bounds fault"
   with Machine.Fault _ -> ());
  (try
     ignore (Machine.load m b (-1));
     Alcotest.fail "expected negative-index fault"
   with Machine.Fault _ -> ());
  Machine.free m b;
  (try
     Machine.free m b;
     Alcotest.fail "expected double-free fault"
   with Machine.Fault _ -> ());
  (try
     ignore (Machine.load m b 0);
     Alcotest.fail "expected use-after-free fault"
   with Machine.Fault _ -> ())

let test_value_close () =
  Alcotest.(check bool) "exact int" true (Value.close (VInt 3) (VInt 3));
  Alcotest.(check bool) "different int" false (Value.close (VInt 3) (VInt 4));
  Alcotest.(check bool) "float tol" true
    (Value.close ~rtol:1e-9 (VFloat 1.0) (VFloat (1.0 +. 1e-12)));
  Alcotest.(check bool) "nan = nan" true (Value.close (VFloat nan) (VFloat nan))

let test_vector_math_cfg () =
  let scalar = Cost.op_cost Cost.default Cost.Math_call in
  let vec =
    Cost.op_cost (Cost.with_vector_math Cost.default) Cost.Math_call
  in
  Alcotest.(check bool) "vector math cheaper" true (vec < scalar);
  Alcotest.(check (float 1e-9)) "by the vector width"
    (scalar /. float_of_int Cost.default.fp_vector_width)
    vec

let prop_cache_determinism =
  QCheck2.Test.make ~count:100 ~name:"cache is deterministic"
    QCheck2.Gen.(list_size (int_range 1 200) (int_range 0 4096))
    (fun addrs ->
      let run () =
        let c = Cache.create ~name:"t" ~size_bytes:256 ~assoc:2 ~line_bytes:32 in
        List.map (Cache.access c) addrs
      in
      run () = run ())

let prop_repeated_access_hits =
  QCheck2.Test.make ~count:100 ~name:"immediate re-access always hits"
    QCheck2.Gen.(int_range 0 100000)
    (fun addr ->
      let c = Cache.create ~name:"t" ~size_bytes:1024 ~assoc:4 ~line_bytes:64 in
      ignore (Cache.access c addr);
      Cache.access c addr)

let suite =
  ( "machine",
    [
      Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru;
      Alcotest.test_case "cache counters" `Quick test_cache_counters;
      Alcotest.test_case "cache reset restores a fresh cache" `Quick
        test_cache_reset_fresh;
      Alcotest.test_case "cache agrees with a list-LRU reference" `Quick
        test_cache_matches_reference;
      Alcotest.test_case "Machine.create allocates under 1 MB" `Quick
        test_machine_create_small;
      Alcotest.test_case "hierarchy costs" `Quick test_hierarchy_costs;
      Alcotest.test_case "register storage is free" `Quick test_register_free;
      Alcotest.test_case "allocation costs" `Quick test_alloc_costs;
      Alcotest.test_case "memory faults" `Quick test_faults;
      Alcotest.test_case "value comparison" `Quick test_value_close;
      Alcotest.test_case "vector math knob" `Quick test_vector_math_cfg;
      QCheck_alcotest.to_alcotest prop_cache_determinism;
      QCheck_alcotest.to_alcotest prop_repeated_access_hits;
    ] )
