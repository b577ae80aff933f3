(* Output fingerprints recorded for the default seed, per workload and
   operation label.  [main.exe] fails an operation whose fingerprint
   differs; other seeds are checked for agreement across the processes
   of one run by run.py. *)

let default_seed = 42

let recorded : (string * (string * string) list) list =
  [
    ( "uniform",
      [
        ("fig5/1.0/BGP", "7c0a0a9717f3a6426f11d6d0561dc7e8");
        ("fig5/1.0/100% Deployed MIRO", "772efc6ad4754c3460e08a1f82b5ab79");
        ("fig5/1.0/100% Deployed MIFO", "cd4c573c9523463dc1fafad7e6f77912");
        ("fig5/0.5/BGP", "7c0a0a9717f3a6426f11d6d0561dc7e8");
        ("fig5/0.5/50% Deployed MIRO", "af1443904c7c47c4845a90718078b1f2");
        ("fig5/0.5/50% Deployed MIFO", "d3359abdd616d96a92f6ebab6b6bfb16");
        ("fig5/0.1/BGP", "7c0a0a9717f3a6426f11d6d0561dc7e8");
        ("fig5/0.1/10% Deployed MIRO", "5bec83b189a30d7e2e55160b39419008");
        ("fig5/0.1/10% Deployed MIFO", "98439231203df9608ffc241f0f4c4503");
        ("fig7/50% Deployed MIRO", "429a7478652be13a1231e6953000341b");
        ("fig7/100% Deployed MIRO", "e266ee25f859e7c3766b591f0cfd5a69");
        ("fig7/50% Deployed MIFO", "dfdfc27477ef6cdb609dde972eb2f06e");
        ("fig7/100% Deployed MIFO", "3c382df20243d3018fef58fb3679bc0a");
      ] );
    ( "powerlaw",
      [
        ("fig6/0.8/BGP", "2bb45dd888d289969c5112473f475834");
        ("fig6/0.8/50% Deployed MIRO", "b3ad29ab9eca875293baf663d41cf147");
        ("fig6/0.8/50% Deployed MIFO", "8e011e0c13014360067df719383466c7");
        ("fig6/1.0/BGP", "3596d93557a959e85e01ee3af1001d83");
        ("fig6/1.0/50% Deployed MIRO", "33edaacc007bee675bb69e4f60ebe131");
        ("fig6/1.0/50% Deployed MIFO", "bdc918d35511c21f486860f15f127534");
        ("fig6/1.2/BGP", "8700f135036d0c31e7468e9f87a4be64");
        ("fig6/1.2/50% Deployed MIRO", "ec3a3c48303c4b938abaa0ea70d8eb22");
        ("fig6/1.2/50% Deployed MIFO", "1b44c44ae61fd2164fde720c976c0b5a");
      ] );
    ( "testbed",
      [
        ("fig12/bgp", "5a2173b19d6cb65700fe8e2548d06f5f");
        ("fig12/mifo", "8bd135ecbfd7703c4c58a6218e5afbe9");
      ] );
    ( "check44k",
      [
        ("check/dest10946", "418e37adee654461da5d4500584c215b");
        ("check/dest1457", "418e37adee654461da5d4500584c215b");
        ("check/dest32152", "418e37adee654461da5d4500584c215b");
        ("check/dest7221", "418e37adee654461da5d4500584c215b");
        ("check/dest25313", "418e37adee654461da5d4500584c215b");
        ("check/dest6075", "418e37adee654461da5d4500584c215b");
        ("check/dest33392", "418e37adee654461da5d4500584c215b");
        ("check/dest2511", "418e37adee654461da5d4500584c215b");
      ] );
  ]

let lookup ~workload ~seed =
  if seed <> default_seed then None else List.assoc_opt workload recorded
