//! A census of the SQL the system sends.
//!
//! Every shipped macro (`macros/*.d2w`), Appendix A's URL query, the load
//! rig's four macros (`benchmark/macros/*.d2w`) and the macros of the tests
//! that pin the paper's behaviour (`tests/macros/*.d2w`: Figure 2's form,
//! the scrollable-cursor pager and the §5 conversation) run in report mode
//! through [`dbgw_core::Engine`], with the requests their tests send, over a
//! [`Database`] that records each statement as sent before handing it to
//! minisql through the gateway's own bridge. Each recorded statement is
//! parsed with [`minisql::parse`], and the constructs it reaches — statement
//! kinds, SELECT clauses, `Expr` variants, operators and aggregate
//! functions — are collected.
//!
//! The reached set must equal [`REACHED`]. A construct that drops out of the
//! list, or one that joins it, is a decision: DESIGN.md §10 ("The SQL the
//! system uses") gives every construct the census does not reach a verdict,
//! keep (naming its use) or delete next, together with the SQL of the
//! examples and the E11 bench, which cannot run here and was read by hand.

use dbgw_cgi::bridge::MiniSqlDatabase;
use dbgw_core::db::{Database, DbError, DbRows, RowSource};
use dbgw_core::{parse_macro, Engine, EngineConfig, Mode, TxnMode};
use minisql::ast::{Expr, Select, SelectItem, SortDir, Statement};
use std::collections::BTreeSet;
use std::fmt::Display;
use std::path::Path;

/// What the system's SQL reaches, as `"<category> <construct>"`.
const REACHED: &[&str] = &[
    "clause FROM",
    "clause INSERT column list",
    "clause LIMIT",
    "clause OFFSET",
    "clause ORDER BY",
    "clause WHERE",
    "expr Binary",
    "expr Column",
    "expr Like",
    "expr Literal",
    "operator +",
    "operator -",
    "operator =",
    "operator AND",
    "operator OR",
    "statement BEGIN",
    "statement COMMIT",
    "statement INSERT VALUES",
    "statement ROLLBACK",
    "statement SELECT",
    "statement UPDATE",
];

/// A [`Database`] that notes each statement before the bridge runs it.
struct Recording {
    db: MiniSqlDatabase,
    sent: Vec<String>,
}

impl Database for Recording {
    fn execute(&mut self, sql: &str) -> Result<DbRows, DbError> {
        self.sent.push(sql.to_owned());
        self.db.execute(sql)
    }

    fn query(&mut self, sql: &str) -> Result<Box<dyn RowSource>, DbError> {
        self.sent.push(sql.to_owned());
        self.db.query(sql)
    }

    fn begin(&mut self) -> Result<(), DbError> {
        self.sent.push("BEGIN".to_owned());
        self.db.begin()
    }

    fn commit(&mut self) -> Result<(), DbError> {
        self.sent.push("COMMIT".to_owned());
        self.db.commit()
    }

    fn rollback(&mut self) -> Result<(), DbError> {
        self.sent.push("ROLLBACK".to_owned());
        self.db.rollback()
    }
}

/// The macro at `relative` (from the repository root).
fn read_macro(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {relative}: {e}"))
}

/// Render `source` in report mode with `inputs` over `db` and return the
/// statements it sent. The page must render.
fn run(db: &minisql::Database, source: &str, inputs: &[(&str, &str)], txn: TxnMode) -> Vec<String> {
    let mac = parse_macro(source).expect("macro parses");
    let inputs: Vec<(String, String)> = (inputs.iter())
        .map(|&(k, v)| (k.to_owned(), v.to_owned()))
        .collect();
    let mut rec = Recording {
        db: MiniSqlDatabase::connect(db),
        sent: Vec::new(),
    };
    let engine = Engine::with_config(EngineConfig {
        txn_mode: txn,
        ..EngineConfig::default()
    });
    engine
        .process(&mac, Mode::Report, &inputs, &mut rec)
        .unwrap_or_else(|e| panic!("report fails: {e}\nsent: {:?}", rec.sent));
    rec.sent
}

/// `golden_macros`' seed: the tables `macros/*.d2w` read and write.
fn golden_seed() -> minisql::Database {
    let db = minisql::Database::new();
    db.run_script(
        "CREATE TABLE guest (name VARCHAR(40) NOT NULL, message VARCHAR(200));
         INSERT INTO guest VALUES ('Mel', 'first!');
         CREATE TABLE audit (note VARCHAR(250));
         CREATE TABLE orders (orderid INT PRIMARY KEY, custid INT,
                              product_name VARCHAR(60), quantity INT, price INT);
         INSERT INTO orders VALUES (100, 1, 'Widget', 3, 15);
         INSERT INTO orders VALUES (101, 2, 'Widget XL', 1, 40);
         INSERT INTO orders VALUES (102, 1, 'Grommet', 7, 2);
         CREATE TABLE acct (id INT PRIMARY KEY, balance INT);
         INSERT INTO acct VALUES (1, 100);
         INSERT INTO acct VALUES (2, 50);",
    )
    .unwrap();
    db
}

/// Every statement the sources send, in the order they sent them.
fn sent_statements() -> Vec<String> {
    use TxnMode::{AutoCommit, SingleTransaction};
    let mut sent = Vec::new();

    let seed = golden_seed();
    let guestbook = read_macro("macros/guestbook.d2w");
    sent.extend(run(
        &seed,
        &guestbook,
        &[("NAME", "Ada"), ("MESSAGE", "hi")],
        AutoCommit,
    ));
    sent.extend(run(
        &seed,
        &guestbook,
        &[("MESSAGE", "anonymous")],
        AutoCommit,
    ));
    let orders = read_macro("macros/orders.d2w");
    for connective in ["AND", "OR"] {
        let inputs = [
            ("cust_inp", "1"),
            ("prod_inp", "Wid"),
            ("CONNECTIVE", connective),
        ];
        sent.extend(run(&seed, &orders, &inputs, AutoCommit));
    }
    sent.extend(run(&seed, &orders, &[], AutoCommit));
    // The transfer conversation's steps, each as one transaction (§5); an
    // amount that overflows the credit rolls its transaction back.
    let transfer = read_macro("macros/transfer.d2w");
    for inputs in [
        &[("STEP", "begin_page")][..],
        &[("STEP", "debit"), ("FROM_ID", "1"), ("AMT", "25")],
        &[("STEP", "credit"), ("TO_ID", "2"), ("AMT", "25")],
        &[
            ("STEP", "credit"),
            ("TO_ID", "2"),
            ("AMT", "9223372036854775807"),
        ],
    ] {
        sent.extend(run(&seed, &transfer, inputs, SingleTransaction));
    }

    // Appendix A over the paper's directory, every field searched and shown.
    let paper = minisql::Database::new();
    paper
        .run_script(
            "CREATE TABLE urldb (url VARCHAR(255) NOT NULL, title VARCHAR(120),
                                 description VARCHAR(400));
             INSERT INTO urldb VALUES
               ('http://www.ibm.com', 'IBM Corporation', 'Products and services'),
               ('http://www.eso.org', 'European Southern Observatory', NULL);",
        )
        .unwrap();
    let appendix_a = [
        ("SEARCH", "ib"),
        ("USE_URL", "yes"),
        ("USE_TITLE", "yes"),
        ("USE_DESC", "yes"),
        ("DBFIELDS", "$(hidden_a)"),
        ("DBFIELDS", "$(hidden_b)"),
    ];
    sent.extend(run(
        &paper,
        dbgw_baselines::URLQUERY_MACRO,
        &appendix_a,
        AutoCommit,
    ));

    // The load rig's macros, with the requests the rig sends, over the
    // workload crate's shop and directory.
    let shop = dbgw_workload::shop::Shop::generate(20, 3, 1996).into_database();
    let rig_orders = read_macro("benchmark/macros/orders.d2w");
    sent.extend(run(
        &shop,
        &rig_orders,
        &[("cust_inp", "10100")],
        AutoCommit,
    ));
    sent.extend(run(&shop, &rig_orders, &[], AutoCommit));
    let getqty = read_macro("benchmark/macros/getqty.d2w");
    sent.extend(run(&shop, &getqty, &[("id", "1")], AutoCommit));
    let setqty = read_macro("benchmark/macros/setqty.d2w");
    sent.extend(run(
        &shop,
        &setqty,
        &[("id", "1"), ("qty", "5")],
        AutoCommit,
    ));
    let directory = dbgw_workload::UrlDirectory::generate(200, 1996).into_database();
    let search = [
        ("SEARCH", "ib"),
        ("USE_TITLE", "yes"),
        ("USE_DESC", "yes"),
        ("DBFIELDS", "title"),
        ("RPT_MAX_ROWS", "4000"),
    ];
    let rig_urlquery = read_macro("benchmark/macros/urlquery.d2w");
    sent.extend(run(&directory, &rig_urlquery, &search, AutoCommit));

    // The pinned tests' macros, with the requests those tests send.
    let figure2 = read_macro("tests/macros/figure2.d2w");
    let figure3 = [
        ("SEARCH", ""),
        ("USE_URL", "yes"),
        ("USE_TITLE", "yes"),
        ("DBFIELD", "title"),
        ("DBFIELD", "desc"),
        ("SHOWSQL", ""),
    ];
    sent.extend(run(&paper, &figure2, &figure3, AutoCommit));
    let pages = dbgw_workload::UrlDirectory::generate(12, 77).into_database();
    let paged = read_macro("tests/macros/paged.d2w");
    for (offset, next) in [("0", "5"), ("5", "10"), ("10", "15")] {
        let inputs = [("OFFSET", offset), ("NEXT", next)];
        sent.extend(run(&pages, &paged, &inputs, AutoCommit));
    }
    sent.extend(run(&pages, &paged, &[], AutoCommit));
    let conversation = read_macro("tests/macros/transfer.d2w");
    for inputs in [
        &[("STEP", "debit"), ("AMT", "40"), ("FROM_ID", "1")][..],
        &[("STEP", "credit"), ("AMT", "40"), ("TO_ID", "2")],
        &[("STEP", "show")],
    ] {
        sent.extend(run(&seed, &conversation, inputs, SingleTransaction));
    }
    sent
}

/// The constructs the parsed statements reach.
#[derive(Default)]
struct Census(BTreeSet<String>);

impl Census {
    fn note(&mut self, category: &str, construct: impl Display) {
        self.0.insert(format!("{category} {construct}"));
    }

    fn statement(&mut self, stmt: &Statement) {
        let kind = match stmt {
            Statement::Select(s) => {
                self.select(s);
                "SELECT"
            }
            Statement::Insert {
                columns, values, ..
            } => {
                if !columns.is_empty() {
                    self.note("clause", "INSERT column list");
                }
                values.iter().flatten().for_each(|e| self.expr(e));
                "INSERT VALUES"
            }
            Statement::Update {
                assignments,
                where_clause,
                ..
            } => {
                assignments.iter().for_each(|(_, e)| self.expr(e));
                self.where_clause(where_clause.as_ref());
                "UPDATE"
            }
            Statement::CreateTable { .. } => "CREATE TABLE",
            Statement::CreateIndex { .. } => "CREATE INDEX",
            Statement::DropIndex { .. } => "DROP INDEX",
            Statement::Explain { inner, .. } => {
                self.statement(inner);
                "EXPLAIN"
            }
            Statement::Begin => "BEGIN",
            Statement::Commit => "COMMIT",
            Statement::Rollback => "ROLLBACK",
        };
        self.note("statement", kind);
    }

    fn where_clause(&mut self, predicate: Option<&Expr>) {
        if let Some(e) = predicate {
            self.note("clause", "WHERE");
            self.expr(e);
        }
    }

    fn select(&mut self, s: &Select) {
        for (present, clause) in [
            (s.from.is_some(), "FROM"),
            (s.where_clause.is_some(), "WHERE"),
            (!s.order_by.is_empty(), "ORDER BY"),
            (s.order_by.iter().any(|k| k.dir == SortDir::Desc), "DESC"),
            (s.limit.is_some(), "LIMIT"),
            (s.offset.is_some(), "OFFSET"),
        ] {
            if present {
                self.note("clause", clause);
            }
        }
        for item in &s.items {
            match item {
                SelectItem::Wildcard => self.note("clause", "*"),
                SelectItem::Expr(_) => {}
            }
        }
        s.for_each_expr(|e| self.expr(e));
    }

    fn expr(&mut self, e: &Expr) {
        let variant = match e {
            Expr::Literal(_) => "Literal",
            Expr::Column(_) => "Column",
            Expr::Param(_) => "Param",
            Expr::Not(_) => "Not",
            Expr::Binary { op, .. } => {
                self.note("operator", op);
                "Binary"
            }
            Expr::Like { .. } => "Like",
            Expr::IsNull { .. } => "IsNull",
            Expr::InList { .. } => "InList",
            Expr::Agg { func, arg } => {
                match arg {
                    Some(_) => self.note("aggregate", func.name()),
                    None => self.note("aggregate", "COUNT(*)"),
                }
                "Agg"
            }
            Expr::Case { .. } => "Case",
        };
        self.note("expr", variant);
        e.for_each_child(|c| self.expr(c));
    }
}

#[test]
fn the_system_sends_only_the_sql_it_is_known_to_send() {
    let sent = sent_statements();
    let mut census = Census::default();
    for sql in &sent {
        let stmt =
            minisql::parse(sql).unwrap_or_else(|e| panic!("sent SQL fails to parse: {sql}: {e}"));
        census.statement(&stmt);
    }
    let want: BTreeSet<String> = REACHED.iter().map(|s| s.to_string()).collect();
    let newly: Vec<_> = census.0.difference(&want).collect();
    let gone: Vec<_> = want.difference(&census.0).collect();
    assert!(
        newly.is_empty() && gone.is_empty(),
        "the census changed: now reached {newly:?}, no longer reached {gone:?} \
         (update REACHED and DESIGN.md §10's table)\nstatements sent:\n{}",
        sent.join("\n")
    );
}
