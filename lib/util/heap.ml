type 'a entry = { priority : float; value : 'a }

type 'a t = { mutable data : 'a entry array; mutable len : int }

let create () = { data = [||]; len = 0 }

let grow h =
  let capacity = max 16 (2 * Array.length h.data) in
  let fresh = Array.make capacity h.data.(0) in
  Array.blit h.data 0 fresh 0 h.len;
  h.data <- fresh

let swap h i j =
  let tmp = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- tmp

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.data.(parent).priority < h.data.(i).priority then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let largest = ref i in
  if left < h.len && h.data.(left).priority > h.data.(!largest).priority then
    largest := left;
  if right < h.len && h.data.(right).priority > h.data.(!largest).priority then
    largest := right;
  if !largest <> i then begin
    swap h i !largest;
    sift_down h !largest
  end

let push h ~priority value =
  let entry = { priority; value } in
  if Array.length h.data = 0 then h.data <- Array.make 16 entry;
  if h.len = Array.length h.data then grow h;
  h.data.(h.len) <- entry;
  h.len <- h.len + 1;
  sift_up h (h.len - 1)

let pop h =
  if h.len = 0 then None
  else begin
    let top = h.data.(0) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.data.(0) <- h.data.(h.len);
      sift_down h 0
    end;
    Some (top.priority, top.value)
  end

let peek h = if h.len = 0 then None else Some (h.data.(0).priority, h.data.(0).value)
