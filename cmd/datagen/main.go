// Command datagen materialises the synthetic benchmark workloads as CSV
// files, one per table — the stand-in for the paper's 1 TB TPC-H dataset
// and proprietary 2 TB Conviva trace.
//
//	datagen -workload tpch -scale 100000 -out ./data/tpch
//	datagen -workload conviva -scale 50000 -out ./data/conviva
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"iolap/internal/rel"
	"iolap/internal/storage"
	"iolap/internal/workload"
)

func main() {
	var (
		name     = flag.String("workload", "tpch", "workload: tpch or conviva")
		scale    = flag.Int("scale", 10000, "fact-table rows")
		seed     = flag.Int64("seed", 42, "generator seed")
		out      = flag.String("out", ".", "output directory")
		format   = flag.String("format", "csv", "output format: csv or iol (columnar v2 block table)")
		block    = flag.Int("block", 1024, "rows per block for -format iol")
		compress = flag.Bool("compress", false, "flate-compress the blocks of -format iol")
	)
	flag.Parse()
	if err := run(*name, *scale, *seed, *out, *format, *block, *compress); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(name string, scale int, seed int64, out, format string, blockRows int, compress bool) error {
	var w *workload.Workload
	switch name {
	case "tpch":
		w = workload.TPCH(workload.TPCHScale{Fact: scale, Seed: seed})
	case "conviva":
		w = workload.Conviva(workload.ConvivaScale{Sessions: scale, Seed: seed})
	default:
		return fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	names := make([]string, 0, len(w.Tables))
	for t := range w.Tables {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, t := range names {
		var path string
		var err error
		switch format {
		case "csv":
			path = filepath.Join(out, t+".csv")
			err = writeCSV(path, w.Tables[t])
		case "iol":
			path = filepath.Join(out, t+".iol")
			err = writeIOL(path, w.Tables[t], blockRows, compress)
		default:
			return fmt.Errorf("unknown format %q", format)
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d rows)\n", path, w.Tables[t].Len())
	}
	return nil
}

func writeIOL(path string, r *rel.Relation, blockRows int, compress bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := storage.WriteColumnar(f, r, blockRows, compress); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeCSV(path string, r *rel.Relation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cw := csv.NewWriter(f)
	if err := cw.Write(r.Schema.Names()); err != nil {
		return err
	}
	row := make([]string, len(r.Schema))
	for _, tp := range r.Tuples {
		for i, v := range tp.Vals {
			if v.IsNull() {
				row[i] = ""
			} else {
				row[i] = v.String()
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
