//! Interactive SQL console over c-tables (paper §3's SQL extension).
//!
//! Loads a demo database (Table 2's PATH′ by default, or the §5
//! enterprise network with `--net`) and evaluates SELECT statements
//! read from stdin. Each statement compiles to one fauré-log rule and
//! runs through the evaluation engine, so conditional rows print with
//! their solver-checked conditions — watch a constant `WHERE` clause
//! match an unknown cell:
//!
//! ```text
//! sql> SELECT dest, path FROM P WHERE dest = '1.2.3.5'
//!   (1.2.3.5, [A,B,E]) [(1.2.3.4 != y' & 1.2.3.5 = y')]
//! ```
//!
//! Run with: `cargo run -p faure-examples --bin sql_console [--net]`
//! (pipe queries in, or type them followed by Enter; Ctrl-D exits).

use faure_core::sql;
use std::io::{BufRead, Write};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let use_net = std::env::args().any(|a| a == "--net");
    let db = if use_net {
        let (db, _) = faure_net::enterprise::compliant_net();
        println!("loaded the §5 enterprise network: tables R, Lb, Fw");
        db
    } else {
        let (db, _) = faure_ctable::examples::table2_path_db();
        println!("loaded Table 2's PATH' database: tables P (c-table), C");
        db
    };
    print!("{db}");
    println!("type SELECT statements; Ctrl-D to exit.\n");

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("sql> ");
        out.flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            println!();
            return Ok(());
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line.eq_ignore_ascii_case("quit") || line.eq_ignore_ascii_case("exit") {
            return Ok(());
        }
        match sql::query(&db, line) {
            Ok(table) => {
                if table.is_empty() {
                    println!("  (no rows)");
                }
                for row in table.iter() {
                    println!("  {}", row.display(&db.cvars));
                }
            }
            Err(e) => println!("  error: {e}"),
        }
    }
}
