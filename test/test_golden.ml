(* Golden snapshot tests for the report renderers.

   The rendered text of Table 1, Table 2 and Figure 7 at seed 1 is
   pinned against checked-in snapshots, so any drift in the simulator,
   cost model, compiler or formatting shows up as a reviewable diff
   instead of silently shifting the paper's numbers. Tables 1/2 run on
   a four-benchmark subset to keep the suite fast; Figure 7 is static
   analysis and snapshots the full suite.

   To regenerate after an intentional change:
     GOLDEN_UPDATE=1 dune exec test/test_main.exe -- test golden
   then copy the regenerated files from _build/default/test/golden/
   (or run from the repo root, which writes test/golden/ directly). *)

let subset = Workloads.Suite.[ crc; rc4; bitcount; rsa ]

let golden_dir =
  if Sys.file_exists "golden" && Sys.is_directory "golden" then "golden"
  else Filename.concat "test" "golden"

let golden_path name = Filename.concat golden_dir (name ^ ".txt")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let check_golden name actual =
  let path = golden_path name in
  if Sys.getenv_opt "GOLDEN_UPDATE" = Some "1" then begin
    write_file path actual;
    Printf.printf "regenerated %s\n" path
  end
  else if not (Sys.file_exists path) then
    Alcotest.failf "missing golden file %s — run with GOLDEN_UPDATE=1" path
  else
    let expected = read_file path in
    if expected <> actual then
      Alcotest.failf
        "%s drifted from its golden snapshot.\n--- expected\n%s\n--- actual\n%s"
        name expected actual

let suite =
  [
    Alcotest.test_case "tab1 render (subset, seed 1)" `Quick (fun () ->
        check_golden "tab1"
          (Experiments.Tab1.render
             (Experiments.Tab1.compute ~seed:1 ~benchmarks:subset ())));
    Alcotest.test_case "tab2 render (subset, seed 1)" `Quick (fun () ->
        check_golden "tab2"
          (Experiments.Tab2.render
             (Experiments.Tab2.compute
                (Experiments.Sweep.compute ~seed:1 ~benchmarks:subset
                   ~frequency:Msp430.Platform.Mhz24 ()))));
    Alcotest.test_case "fig7 render (seed 1)" `Quick (fun () ->
        check_golden "fig7"
          (Experiments.Fig7.render (Experiments.Fig7.compute ~seed:1 ())));
  ]
