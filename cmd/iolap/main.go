// Command iolap runs a SQL query incrementally over one of the built-in
// benchmark workloads (or CSV files) and streams the refined partial
// results — the interactive experience of the paper's Section 1: an
// approximate answer within the first batch, continuously refined, exact at
// the end.
//
// Examples:
//
//	iolap -workload conviva -query C8
//	iolap -workload tpch -query Q17 -batches 20 -trials 100
//	iolap -workload conviva -sql "SELECT cdn, AVG(play_time) FROM conviva_sessions GROUP BY cdn" -stream conviva_sessions
//	iolap -csv sessions=data.csv -stream sessions -sql "SELECT COUNT(*) FROM sessions"
package main

import (
	"bufio"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"iolap"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "built-in workload: tpch or conviva")
		scale        = flag.Int("scale", 20000, "fact-table rows for the built-in workloads")
		queryName    = flag.String("query", "", "built-in query name (Q1..Q22, C1..C12)")
		sqlText      = flag.String("sql", "", "ad-hoc SQL text (alternative to -query)")
		stream       = flag.String("stream", "", "table to stream (required with -sql)")
		batches      = flag.Int("batches", 10, "mini-batch count p")
		trials       = flag.Int("trials", 100, "bootstrap trials")
		slack        = flag.Float64("slack", 2.0, "variation-range slack epsilon")
		seed         = flag.Uint64("seed", 42, "random seed")
		mode         = flag.String("mode", "iolap", "engine mode: iolap, opt1, hda")
		csvSpec      = flag.String("csv", "", "load a CSV table: name=path (streamed via -stream)")
		iolSpec      = flag.String("iol", "", "load a block table: name=path (written by datagen -format iol)")
		stratify     = flag.String("stratify", "", "stratified batching column (each batch carries every stratum)")
		showPlan     = flag.Bool("plan", false, "print the compiled online plan")
		showStats    = flag.Bool("stats", false, "print per-operator statistics after each batch")
		interactive  = flag.Bool("i", false, "interactive mode: read queries from stdin")
		maxRows      = flag.Int("maxrows", 10, "result rows to display per update")
		workers      = flag.Int("workers", 0, "partition-parallel workers (0 = GOMAXPROCS; results identical at any count)")
		stateBudget  = flag.Int64("state-budget", 0, "join-state budget in bytes: above it cold shards spill to disk (0 = unlimited, negative = spill everything; results identical at any budget)")
		serveAddr    = flag.String("serve", "", "run as a serving endpoint on host:port: admit concurrent online-aggregation sessions from remote clients over the loaded tables, one shared scan per streamed table (ignores the query flags)")
		serveBudget  = flag.Int64("serve-tenant-budget", 0, "per-tenant state-budget cap in bytes for -serve admission (0 = unlimited)")
		serveQueue   = flag.Bool("serve-queue", false, "queue sessions FIFO at the -serve budget boundary instead of rejecting them")
		serveMax     = flag.Int("serve-max-sessions", 0, "cap on concurrently admitted -serve sessions (0 = unlimited)")
		serveNoShare = flag.Bool("serve-no-share", false, "disable the cross-session shared-state cache (every -serve session builds private operator state)")
		convertSpec  = flag.String("convert", "", "rewrite a loaded table as a columnar v2 block file and exit: name=path (load the source via -iol, -csv, or -workload)")
		convertRows  = flag.Int("convert-block-rows", 0, "rows per block for -convert (0 = storage default)")
		convertRaw   = flag.Bool("convert-no-compress", false, "disable per-block flate compression for -convert")
		cpuProfile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile   = flag.String("memprofile", "", "write a pprof allocation profile to this file on exit")
	)
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iolap:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "iolap:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "iolap:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the heap profile is steady-state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "iolap:", err)
			}
		}()
	}
	if *serveAddr != "" {
		log.SetPrefix("iolap-serve ")
		session, _, err := buildSession(*workloadName, *scale, *seed, *csvSpec, *iolSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iolap:", err)
			os.Exit(1)
		}
		srv := session.NewServer(&iolap.ServeOptions{
			Batches:             *batches,
			TenantBudgetBytes:   *serveBudget,
			QueueOnBudget:       *serveQueue,
			MaxSessions:         *serveMax,
			DisableStateSharing: *serveNoShare,
		})
		addr, err := srv.ListenAndServe(*serveAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iolap:", err)
			os.Exit(1)
		}
		sharing := "on"
		if *serveNoShare {
			sharing = "off"
		}
		log.Printf("serving sessions on %s (%d batches per scan, state sharing %s)", addr, *batches, sharing)
		go func() {
			// Periodic operational stats, including shared-state savings.
			for range time.Tick(30 * time.Second) {
				st := srv.Stats()
				log.Printf("sessions: opened=%d completed=%d cancelled=%d rejected=%d queued=%d shared-hits=%d shared-bytes-saved=%d shared-live-bytes=%d",
					st.Opened, st.Completed, st.Cancelled, st.Rejected, st.Queued,
					st.SharedStateHits, st.SharedStateBytesSaved, srv.SharedLiveBytes())
			}
		}()
		select {} // serve until killed
	}
	if *convertSpec != "" {
		session, _, err := buildSession(*workloadName, *scale, *seed, *csvSpec, *iolSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iolap:", err)
			os.Exit(1)
		}
		if err := convertTable(session, *convertSpec, *convertRows, !*convertRaw); err != nil {
			fmt.Fprintln(os.Stderr, "iolap:", err)
			os.Exit(1)
		}
		return
	}
	session, queries, err := buildSession(*workloadName, *scale, *seed, *csvSpec, *iolSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iolap:", err)
		os.Exit(1)
	}
	opts := &iolap.Options{
		Batches: *batches, Trials: *trials, Slack: *slack,
		Seed: *seed, Stream: *stream, StratifyBy: *stratify,
		Workers: *workers, StateBudgetBytes: *stateBudget,
	}
	if *interactive {
		err = repl(session, opts, os.Stdin, os.Stdout, *maxRows)
	} else {
		// The one-shot run alone honours -mode.
		var query string
		if opts.Mode, err = parseMode(*mode); err == nil {
			query, err = pickQuery(queries, *queryName, *sqlText, opts)
		}
		if err == nil {
			err = run(session, query, opts, *showPlan, *showStats, *maxRows)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "iolap:", err)
		os.Exit(1)
	}
}

// buildSession constructs the session from workload/csv/iol flags.
func buildSession(workloadName string, scale int, seed uint64, csvSpec, iolSpec string) (*iolap.Session, []iolap.BenchQuery, error) {
	switch {
	case csvSpec != "":
		s := iolap.NewSession()
		if err := loadCSV(s, csvSpec); err != nil {
			return nil, nil, err
		}
		return s, nil, nil
	case iolSpec != "":
		s := iolap.NewSession()
		if err := loadIOL(s, iolSpec); err != nil {
			return nil, nil, err
		}
		return s, nil, nil
	case workloadName == "tpch":
		s, q := iolap.NewTPCHSession(scale, int64(seed))
		return s, q, nil
	case workloadName == "conviva":
		s, q := iolap.NewConvivaSession(scale, int64(seed))
		return s, q, nil
	}
	return nil, nil, fmt.Errorf("pick -workload tpch|conviva, -csv name=path, or -iol name=path")
}

// repl runs the interactive loop: each line is a SQL query executed
// incrementally; backslash commands inspect the session.
func repl(session *iolap.Session, opts *iolap.Options, in io.Reader, out io.Writer, maxRows int) error {
	fmt.Fprintln(out, `iolap interactive: enter SQL, \tables, \stream <t>, \plan <sql>, or \q`)
	// Default the streamed table when unambiguous.
	if opts.Stream == "" {
		if tables := session.Tables(); len(tables) == 1 {
			opts.Stream = tables[0]
		}
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for {
		fmt.Fprint(out, "iolap> ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\q` || line == "exit" || line == "quit":
			return nil
		case line == `\tables`:
			for _, t := range session.Tables() {
				n, _ := session.RowCount(t)
				format, _ := session.TableFormat(t)
				fmt.Fprintf(out, "  %s (%d rows, %s)\n", t, n, format)
			}
			continue
		case strings.HasPrefix(line, `\stream `):
			opts.Stream = strings.TrimSpace(strings.TrimPrefix(line, `\stream `))
			fmt.Fprintf(out, "streaming %q\n", opts.Stream)
			continue
		case strings.HasPrefix(line, `\plan `):
			cur, err := session.Query(strings.TrimPrefix(line, `\plan `), opts)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprint(out, cur.Plan())
			continue
		}
		cur, err := session.Query(line, opts)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			continue
		}
		for cur.Next() {
			u := cur.Update()
			fmt.Fprintf(out, "batch %d/%d  %5.1f%%  rel-stdev %6.3f%%\n",
				u.Batch, u.Batches, 100*u.Fraction, 100*u.MaxRelStdev())
			printRowsTo(out, u, maxRows)
		}
		if err := cur.Err(); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	}
}

// parseMode maps the -mode flag to an engine mode.
func parseMode(name string) (iolap.Mode, error) {
	switch strings.ToLower(name) {
	case "iolap":
		return iolap.ModeIOLAP, nil
	case "opt1":
		return iolap.ModeOPT1, nil
	case "hda":
		return iolap.ModeHDA, nil
	}
	return 0, fmt.Errorf("unknown mode %q", name)
}

// pickQuery resolves -query / -sql to the SQL text to run. A built-in query
// also supplies the table to stream, unless -stream already named one.
func pickQuery(queries []iolap.BenchQuery, name, sqlText string, opts *iolap.Options) (string, error) {
	if name == "" {
		if sqlText == "" {
			return "", fmt.Errorf("provide -query or -sql")
		}
		return sqlText, nil
	}
	for _, q := range queries {
		if strings.EqualFold(q.Name, name) {
			if opts.Stream == "" {
				opts.Stream = q.Stream
			}
			return q.SQL, nil
		}
	}
	return "", fmt.Errorf("unknown query %q", name)
}

// run executes one query incrementally, printing every refined result.
func run(session *iolap.Session, query string, opts *iolap.Options, showPlan, showStats bool, maxRows int) error {
	cur, err := session.Query(query, opts)
	if err != nil {
		return err
	}
	defer cur.Close()
	if showPlan {
		fmt.Println(cur.Plan())
	}
	for cur.Next() {
		u := cur.Update()
		fmt.Printf("batch %d/%d  %5.1f%% processed  %8.2f ms  rel-stdev %6.3f%%  recomputed %d\n",
			u.Batch, u.Batches, 100*u.Fraction, u.DurationMillis,
			100*u.MaxRelStdev(), u.Recomputed)
		if u.SpillBytesWritten > 0 || u.SpillBytesRead > 0 {
			fmt.Printf("    spill: %d B written, %d B read\n", u.SpillBytesWritten, u.SpillBytesRead)
		}
		printRows(u, maxRows)
		if showStats {
			for _, st := range cur.OpStats() {
				fmt.Printf("    [%-9s] news=%-7d unc=%-7d state=%dB spilled=%d\n",
					st.Kind, st.News, st.Unc, st.StateBytes, st.SpilledRows)
			}
		}
	}
	if err := cur.Err(); err != nil {
		return err
	}
	if n := cur.Recoveries(); n > 0 {
		fmt.Printf("failure recoveries: %d\n", n)
	}
	return nil
}

func printRows(u *iolap.Update, maxRows int) { printRowsTo(os.Stdout, u, maxRows) }

func printRowsTo(w io.Writer, u *iolap.Update, maxRows int) {
	fmt.Fprintf(w, "  %s\n", strings.Join(u.Columns, " | "))
	for i, row := range u.Rows {
		if i >= maxRows {
			fmt.Fprintf(w, "  ... (%d more rows)\n", len(u.Rows)-maxRows)
			break
		}
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = fmt.Sprint(v)
			if f, ok := v.(float64); ok {
				cells[j] = strconv.FormatFloat(f, 'f', 3, 64)
				if e := u.Estimates[i][j]; e.Stdev > 0 {
					cells[j] += fmt.Sprintf(" ±%.3f", e.Stdev)
				}
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(cells, " | "))
	}
}

// convertTable writes a loaded table as a columnar v2 block file — the
// -convert path through the storage block codec. Reloading the output with
// -iol takes the columnar decode path and \tables reports it as such.
func convertTable(s *iolap.Session, spec string, blockRows int, compress bool) error {
	name, path, ok := strings.Cut(spec, "=")
	if !ok {
		return fmt.Errorf("-convert wants name=path, got %q", spec)
	}
	n, err := s.RowCount(name)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteBlockTable(name, f, blockRows, compress); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	comp := "flate"
	if !compress {
		comp = "raw"
	}
	fmt.Printf("wrote %s: %d rows, columnar v2 (%s), %d bytes\n", name, n, comp, info.Size())
	return nil
}

// loadIOL reads a "name=path" block table into the session.
func loadIOL(s *iolap.Session, spec string) error {
	name, path, ok := strings.Cut(spec, "=")
	if !ok {
		return fmt.Errorf("-iol wants name=path, got %q", spec)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := s.LoadBlockTable(name, f, iolap.Streamed)
	if err != nil {
		return err
	}
	fmt.Printf("loaded %s: %d rows\n", name, n)
	return nil
}

// loadCSV reads "name=path" into the session, sniffing column types from
// the first data row (int, then float, else string). The first CSV row is
// the header.
func loadCSV(s *iolap.Session, spec string) error {
	name, path, ok := strings.Cut(spec, "=")
	if !ok {
		return fmt.Errorf("-csv wants name=path, got %q", spec)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return err
	}
	if len(records) < 2 {
		return fmt.Errorf("%s: need a header and at least one row", path)
	}
	header := records[0]
	first := records[1]
	cols := make([]iolap.Column, len(header))
	kinds := make([]iolap.Type, len(header))
	for i, h := range header {
		kinds[i] = sniffType(first[i])
		cols[i] = iolap.Column{Name: h, Type: kinds[i]}
	}
	if err := s.CreateTable(name, cols, iolap.Streamed); err != nil {
		return err
	}
	rows := make([][]interface{}, 0, len(records)-1)
	for _, rec := range records[1:] {
		row := make([]interface{}, len(rec))
		for i, cell := range rec {
			v, err := parseCell(cell, kinds[i])
			if err != nil {
				return fmt.Errorf("%s row %d col %s: %w", path, len(rows)+1, header[i], err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	return s.Insert(name, rows)
}

func sniffType(cell string) iolap.Type {
	if _, err := strconv.ParseInt(cell, 10, 64); err == nil {
		return iolap.TInt
	}
	if _, err := strconv.ParseFloat(cell, 64); err == nil {
		return iolap.TFloat
	}
	return iolap.TString
}

func parseCell(cell string, t iolap.Type) (interface{}, error) {
	if cell == "" {
		return nil, nil
	}
	switch t {
	case iolap.TInt:
		return strconv.ParseInt(cell, 10, 64)
	case iolap.TFloat:
		return strconv.ParseFloat(cell, 64)
	default:
		return cell, nil
	}
}
