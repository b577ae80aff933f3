(* In-place heapsort over a prefix of an array.

   [Array.sort] always sorts the whole array, so callers that keep a
   reusable scratch buffer (the flow simulator's per-epoch adaptation
   order) would have to allocate an exact-size copy every time.  This
   sorts [a.(0 .. len-1)] in place with zero allocation.

   Heapsort is not stable, but for a *total* order (no two elements
   compare equal) the sorted sequence is unique, so the result is
   identical to [Array.sort] — the determinism the simulators rely on.
   Callers must therefore pass a total order (break ties on a distinct
   index). *)

let sort_prefix ~cmp a len =
  if len < 0 || len > Array.length a then invalid_arg "Sort.sort_prefix";
  let swap i j =
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  in
  (* max-heap sift-down over a.(lo .. hi-1) rooted at i *)
  let rec sift i hi =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let largest = ref i in
    if l < hi && cmp a.(l) a.(!largest) > 0 then largest := l;
    if r < hi && cmp a.(r) a.(!largest) > 0 then largest := r;
    if !largest <> i then begin
      swap i !largest;
      sift !largest hi
    end
  in
  for i = (len / 2) - 1 downto 0 do
    sift i len
  done;
  for hi = len - 1 downto 1 do
    swap 0 hi;
    sift 0 hi
  done

let find_first (a : int array) x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length a && a.(!lo) = x then !lo else -1
