from tanglecert.cli import main

raise SystemExit(main())
