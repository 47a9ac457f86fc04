type step = {
  room : int;
  reads : int;
  writes : int;
  forward : int;
  timer : bool;
}

type t = step array array

let addr_bit a = 1 lsl (if a < 61 then a else 61)

let enabled t (c : Arena.state) i =
  c.s_wait.(i) = 0
  &&
  let pc = c.s_pc.(i) in
  pc < Array.length t.(i) && c.s_len.(i) < t.(i).(pc).room

let starts_timer t (c : Arena.state) i = t.(i).(c.s_pc.(i)).timer

let reads t (c : Arena.state) i =
  let s = t.(i).(c.s_pc.(i)) in
  if s.forward >= 0 && Arena.newest c i s.forward >= 0 then 0 else s.reads

let writes t (c : Arena.state) i = t.(i).(c.s_pc.(i)).writes

let child_sleep t (c : Arena.state) explored ~acting:i ~drain ~addr_mask ~guard =
  let n = Array.length t in
  let ri = if drain then 0 else reads t c i in
  let wi = if drain then 0 else writes t c i in
  let sl = ref 0 in
  for m = 0 to n - 1 do
    if m <> i then begin
      (if explored land (1 lsl m) <> 0 && c.s_len.(m) > 0 then
         let em = addr_bit c.s_buf.(c.s_base.(m)) in
         if
           if drain then guard && em land addr_mask = 0
           else (ri lor wi) land em = 0
         then sl := !sl lor (1 lsl m));
      if
        explored land (1 lsl (n + m)) <> 0
        && enabled t c m
        && not (starts_timer t c m)
      then begin
        let rm = reads t c m and wm = writes t c m in
        if
          if drain then guard && (rm lor wm) land addr_mask = 0
          else wi land (rm lor wm) = 0 && wm land ri = 0
        then sl := !sl lor (1 lsl (n + m))
      end
    end
  done;
  !sl
