// Command sdmsql is an interactive shell for the embedded metadata
// database (the MySQL stand-in). Statements may span multiple lines
// and are terminated by ';' (a final unterminated statement executes
// at EOF, so piped one-liners still work); results print after each
// complete statement. It speaks the catalog's dialect (README, "The
// catalog's SQL dialect"): CREATE TABLE / INDEX, DROP TABLE, INSERT,
// SELECT with comparisons joined by AND and an ascending ORDER BY,
// DELETE, and EXPLAIN SELECT …, which prints the query plan (which
// index serves the query and why, with a rows-scanned estimate)
// instead of rows. UPDATE, DESC, LIMIT, OR, NOT, IS NULL and
// arithmetic are refused with an error naming them. With -db it
// operates on a saved catalog snapshot and persists changes back
// with \w.
//
// Meta commands (on their own line): \t lists tables, \d <table>
// shows columns, \stats prints the engine's query statistics
// (plan-kind counts and writer waits included), \w writes
// the database back to the -db file, \q quits.
//
// A session whose input is not a terminal (a script) exits 1 if any
// statement or meta command failed, as the sqlite3 shell does; an
// interactive session exits 0.
//
// Usage:
//
//	sdmsql [-db catalog.db]
//	echo 'SELECT * FROM run_table' | sdmsql -db catalog.db
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"

	"sdm/internal/metadb"
)

func main() {
	dbPath := flag.String("db", "", "metadb snapshot to load (and \\w to)")
	flag.Parse()

	db := metadb.New()
	if *dbPath != "" {
		if f, err := os.Open(*dbPath); err == nil {
			if err := db.Load(f); err != nil {
				log.Fatalf("loading %s: %v", *dbPath, err)
			}
			f.Close()
			fmt.Printf("loaded %s (%d tables)\n", *dbPath, len(db.TableNames()))
		} else if !os.IsNotExist(err) {
			log.Fatal(err)
		}
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	interactive := isTerminal()
	failed := false
	fail := func(err error) {
		fmt.Println("error:", err)
		failed = true
	}
	var pending strings.Builder
	prompt := func() {
		if !interactive {
			return
		}
		if pending.Len() == 0 {
			fmt.Print("sdmsql> ")
		} else {
			fmt.Print("   ...> ")
		}
	}
	prompt()
loop:
	for sc.Scan() {
		raw := sc.Text()
		line := strings.TrimSpace(raw)
		// Meta commands and comments only apply between statements.
		if pending.Len() == 0 {
			switch {
			case line == "" || strings.HasPrefix(line, "--"):
				prompt()
				continue
			case line == `\q`:
				break loop
			case line == `\t`:
				for _, t := range db.TableNames() {
					fmt.Println(t)
				}
				prompt()
				continue
			case strings.HasPrefix(line, `\d `):
				cols, err := db.Columns(strings.TrimSpace(line[3:]))
				if err != nil {
					fail(err)
				} else {
					for _, c := range cols {
						fmt.Println(c)
					}
				}
				prompt()
				continue
			case line == `\stats`:
				printStats(db)
				prompt()
				continue
			case line == `\w`:
				if *dbPath == "" {
					fail(errors.New("no -db path to write to"))
				} else if err := save(db, *dbPath); err != nil {
					fail(err)
				} else {
					fmt.Printf("wrote %s\n", *dbPath)
				}
				prompt()
				continue
			}
		}
		pending.WriteString(raw)
		pending.WriteByte('\n')
		stmts, rest := splitStatements(pending.String())
		pending.Reset()
		// Keep only an unfinished statement: the newline after a ';' must
		// not hide the next line's meta command.
		if strings.TrimSpace(rest) != "" {
			pending.WriteString(rest)
		}
		for _, stmt := range stmts {
			if err := execute(db, stmt); err != nil {
				fail(err)
			}
		}
		prompt()
	}
	// EOF flushes an unterminated trailing statement, keeping
	// `echo 'SELECT ...' | sdmsql` working without a semicolon.
	if tail := strings.TrimSpace(pending.String()); tail != "" {
		if err := execute(db, tail); err != nil {
			fail(err)
		}
	}
	if failed && !interactive {
		os.Exit(1)
	}
}

// splitStatements cuts the accumulated input at every ';' that sits
// outside a single-quoted SQL string (a doubled quote escapes one
// inside a string), returning the complete statements and the
// unterminated remainder.
func splitStatements(src string) (stmts []string, rest string) {
	start := 0
	inString := false
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '\'':
			inString = !inString
		case ';':
			if inString {
				continue
			}
			if s := strings.TrimSpace(src[start:i]); s != "" {
				stmts = append(stmts, s)
			}
			start = i + 1
		}
	}
	return stmts, src[start:]
}

// execute runs one statement and prints its rows or its count.
func execute(db *metadb.DB, stmt string) error {
	upper := strings.ToUpper(strings.TrimSpace(stmt))
	if strings.HasPrefix(upper, "SELECT") || strings.HasPrefix(upper, "EXPLAIN") {
		rows, err := db.Query(stmt)
		if err != nil {
			return err
		}
		w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintln(w, strings.Join(rows.Columns, "\t"))
		for _, row := range rows.Data {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			fmt.Fprintln(w, strings.Join(cells, "\t"))
		}
		w.Flush()
		fmt.Printf("(%d rows)\n", rows.Len())
		return nil
	}
	n, err := db.Exec(stmt)
	if err != nil {
		return err
	}
	fmt.Printf("ok (%d rows affected)\n", n)
	return nil
}

// printStats dumps one consistent snapshot of the engine's counters,
// including how queries split across plan kinds and how often a writer
// found the writer mutex held.
func printStats(db *metadb.DB) {
	st := db.StatsSnapshot()
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "queries\t%d\n", st.Queries)
	fmt.Fprintf(w, "rows scanned\t%d\n", st.RowsScanned)
	fmt.Fprintf(w, "index hits\t%d\n", st.IndexHits)
	fmt.Fprintf(w, "order skips\t%d\n", st.OrderSkips)
	fmt.Fprintf(w, "plan eq\t%d\n", st.PlanEq)
	fmt.Fprintf(w, "plan range\t%d\n", st.PlanRange)
	fmt.Fprintf(w, "plan scan\t%d\n", st.PlanScan)
	fmt.Fprintf(w, "snapshots\t%d\n", st.Snapshots)
	fmt.Fprintf(w, "commits\t%d\n", st.Commits)
	fmt.Fprintf(w, "writer waits\t%d\n", st.ShardWaits)
	w.Flush()
}

func save(db *metadb.DB, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return db.Save(f)
}

func isTerminal() bool {
	info, err := os.Stdin.Stat()
	return err == nil && info.Mode()&os.ModeCharDevice != 0
}
