from segdt.cli import main

raise SystemExit(main())
