(* The first CRC of a process, computed by several domains at once.

   Runs as its own executable so the CRC table is still untouched when
   the domains start: four domains wait on a spin barrier, then all
   compute their first digest together.  Each must get the standard
   check value, and none may raise. *)

let domains = 4

let () =
  let arrived = Atomic.make 0 in
  let worker () =
    Atomic.incr arrived;
    while Atomic.get arrived < domains do
      Domain.cpu_relax ()
    done;
    Ivm_wire.Crc32.digest "123456789"
  in
  let results =
    List.map Domain.join (List.init domains (fun _ -> Domain.spawn worker))
  in
  List.iteri
    (fun i crc ->
      if crc <> 0xCBF43926l then begin
        Printf.eprintf "crc_race: domain %d got %08lx\n" i crc;
        exit 1
      end)
    results;
  print_endline "crc_race: 4 concurrent first digests agree"
