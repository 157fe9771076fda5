(** A single level of set-associative cache with LRU replacement.

    Together with {!Machine}'s three-level hierarchy this substitutes for
    the paper's Xeon Gold 6130 testbed and PAPI counters: the paper
    explains the deriche result via L2/L3 miss ratios, so the model must
    expose per-level miss counts that respond to access-order changes
    (e.g. Polygeist's loop inversion).

    Sets are allocated on their first miss. Until then a set is the shared,
    read-only [empty] array, so creating a cache costs one pointer per set
    instead of the whole tag and stamp store (about 5.8 MB for the 22 MiB
    L3), and a machine that touches few lines never pays for the rest. *)

type t = {
  name : string;
  sets : int;
  assoc : int;
  line_bytes : int;
  ways : int array array;
      (** per set: [assoc] tags (-1 = invalid), then [assoc] LRU stamps;
          [empty] until the set's first miss *)
  mutable tick : int;
  mutable accesses : int;
  mutable misses : int;
}

let empty : int array = [||]

let create ~(name : string) ~(size_bytes : int) ~(assoc : int)
    ~(line_bytes : int) : t =
  let lines = size_bytes / line_bytes in
  let sets = max 1 (lines / assoc) in
  {
    name;
    sets;
    assoc;
    line_bytes;
    ways = Array.make sets empty;
    tick = 0;
    accesses = 0;
    misses = 0;
  }

(** [access c addr] touches the line containing byte address [addr];
    returns [true] on hit. On miss the line is installed, evicting LRU. *)
let access (c : t) (addr : int) : bool =
  c.tick <- c.tick + 1;
  c.accesses <- c.accesses + 1;
  let line = addr / c.line_bytes in
  let set = line mod c.sets in
  let assoc = c.assoc in
  let w = c.ways.(set) in
  if w == empty then begin
    (* First touch of the set: every way is invalid with stamp 0, so the
       victim is way 0, as in a fully preallocated set. *)
    let w = Array.make (2 * assoc) (-1) in
    Array.fill w assoc assoc 0;
    w.(0) <- line;
    w.(assoc) <- c.tick;
    c.ways.(set) <- w;
    c.misses <- c.misses + 1;
    false
  end
  else begin
    let hit_way = ref (-1) in
    for k = 0 to assoc - 1 do
      if w.(k) = line then hit_way := k
    done;
    if !hit_way >= 0 then begin
      w.(assoc + !hit_way) <- c.tick;
      true
    end
    else begin
      c.misses <- c.misses + 1;
      (* Evict least-recently-used way. *)
      let victim = ref 0 in
      for k = 1 to assoc - 1 do
        if w.(assoc + k) < w.(assoc + !victim) then victim := k
      done;
      w.(!victim) <- line;
      w.(assoc + !victim) <- c.tick;
      false
    end
  end

(** Return [c] to its freshly created state: no valid lines, no LRU
    history, zeroed counters. *)
let reset (c : t) : unit =
  Array.fill c.ways 0 c.sets empty;
  c.tick <- 0;
  c.accesses <- 0;
  c.misses <- 0

let miss_rate (c : t) : float =
  if c.accesses = 0 then 0.0 else float_of_int c.misses /. float_of_int c.accesses
