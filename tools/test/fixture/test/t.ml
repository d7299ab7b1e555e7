let () = print_int Fixture_lib.A.test_only
