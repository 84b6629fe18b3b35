//! Run the full gateway as a browsable web site: home page with links, the
//! URL-directory app, the order-entry app and the guestbook, all behind the
//! HTTP server.
//!
//! ```sh
//! cargo run --example serve            # serves until Ctrl+C on port 8080
//! cargo run --example serve -- 0 5     # port 0 (ephemeral), exit after 5s
//! DBGW_DATA_DIR=./data cargo run --example serve   # durable: WAL + recovery
//! ```
//!
//! With `DBGW_DATA_DIR` set, writes survive restarts: the demo tables are
//! seeded only on first boot (when recovery finds an empty database), and
//! every later run picks up where the log left off. The first line on
//! stderr is the effective configuration — every `DBGW_*` name, its value,
//! and whether the environment set it; `/stats` shows the same table.

use dbgw_baselines::URLQUERY_MACRO;
use dbgw_cgi::{Config, Gateway, HttpServer};
use dbgw_workload::{shop::Shop, UrlDirectory};

const ORDER_MACRO: &str = include_str!("../macros/orders.d2w");
const GUESTBOOK_MACRO: &str = include_str!("../macros/guestbook.d2w");
const TRANSFER_MACRO: &str = include_str!("../macros/transfer.d2w");

fn main() {
    let config = Config::from_env().unwrap_or_else(|e| {
        eprintln!("serve: {e}");
        std::process::exit(2);
    });
    eprintln!("{config}");
    let mut args = std::env::args().skip(1);
    let port: u16 = args.next().and_then(|a| a.parse().ok()).unwrap_or(8080);
    let run_secs: Option<u64> = args.next().and_then(|a| a.parse().ok());

    // One database, all four applications' tables. With DBGW_DATA_DIR set
    // this is durable (WAL + recovery); seed only when recovery came back
    // empty, so restarts keep the accumulated guestbook entries and orders.
    let db = config.open_database().expect("open database");
    if let Some(dir) = db.data_dir() {
        println!("durable data dir: {}", dir.display());
    }
    if db.pin().tables.is_empty() {
        UrlDirectory::generate(300, 1996).load(&db).expect("urldb");
        Shop::generate(40, 4, 1996).load(&db).expect("shop");
        db.run_script(
            "CREATE TABLE guest (name VARCHAR(40) NOT NULL, message VARCHAR(200));
             CREATE TABLE audit (note VARCHAR(250));
             CREATE TABLE acct (id INTEGER PRIMARY KEY, balance DOUBLE);
             INSERT INTO acct VALUES (1, 100.0), (2, 0.0);",
        )
        .expect("guestbook + transfer tables");
    }

    let gateway = Gateway::new(db).enable_sessions(std::time::Duration::from_secs(300));
    gateway.add_macro("urlquery.d2w", URLQUERY_MACRO).unwrap();
    gateway.add_macro("orders.d2w", ORDER_MACRO).unwrap();
    gateway.add_macro("guestbook.d2w", GUESTBOOK_MACRO).unwrap();
    gateway.add_macro("transfer.d2w", TRANSFER_MACRO).unwrap();

    let server = HttpServer::start_from_config(gateway, port, &config).expect("bind");
    server.add_static_page(
        "/",
        "<HTML><HEAD><TITLE>DB2 WWW Connection (reproduction)</TITLE></HEAD>\n\
         <BODY><H1>Web-DBMS gateway demo</H1>\n<UL>\n\
         <LI><A HREF=\"/cgi-bin/db2www/urlquery.d2w/input\">URL directory search</A> (Appendix A)\n\
         <LI><A HREF=\"/cgi-bin/db2www/orders.d2w/input\">Order lookup</A> (the conditional-WHERE example)\n\
         <LI><A HREF=\"/cgi-bin/db2www/guestbook.d2w/input\">Guestbook</A> (read-write, transactions)\n\
         <LI><A HREF=\"/cgi-bin/db2www/transfer.d2w/input\">Funds transfer</A> (conversational transaction)\n\
         </UL></BODY></HTML>\n",
    );
    println!("serving on http://{}", server.addr());
    println!("  /cgi-bin/db2www/urlquery.d2w/input");
    println!("  /cgi-bin/db2www/orders.d2w/input");
    println!("  /cgi-bin/db2www/guestbook.d2w/input");
    println!("  /cgi-bin/db2www/transfer.d2w/input");

    match run_secs {
        Some(secs) => {
            std::thread::sleep(std::time::Duration::from_secs(secs));
            server.shutdown();
            println!("done after {secs}s");
        }
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
}
