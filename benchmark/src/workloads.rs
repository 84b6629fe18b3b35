//! The four workloads: fixture data, seeded request streams, and the oracle
//! that knows what every response must contain.
//!
//! Fixture *data* is fixed (it does not depend on `--seed`), so recovery
//! replays the same log and the caches see the same working set on every
//! run; the seed picks the *requests*. Workloads differ by inputs only:
//! working set against the 4 MiB result cache, page size against the 16 KiB
//! stream watermark, and write share.

use crate::rng::{Rng, Zipf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

const FIXTURE_SEED: u64 = 1996;
const CGI: &str = "/cgi-bin/db2www";
/// Rows per `INSERT` statement while loading. Row-at-a-time loading is
/// quadratic in table size today (`minisql.db.row_insert_rows_per_s` keeps
/// that visible); batches keep set-up inside the time budget.
const INSERT_BATCH: usize = 500;
/// `RPT_MAX_ROWS` sent with every `scan_report` request.
pub const SCAN_MAX_ROWS: usize = 50;
const SEARCH_STRINGS: usize = 500;
/// Share of `small_page` requests that fetch the input form (percent).
const FORM_PCT: u64 = 10;
/// `write_mix` updates once in every block of this many requests (20%), at
/// a position the seed picks. An update costs forty reads, so were each
/// request a write by an independent 20% draw, a 1 s phase's throughput
/// would move ±6% on the luck of the draw alone.
const WRITE_EVERY: u64 = 5;

pub const ORDERS_MACRO: &str = include_str!("../macros/orders.d2w");
pub const URLQUERY_MACRO: &str = include_str!("../macros/urlquery.d2w");
pub const GETQTY_MACRO: &str = include_str!("../macros/getqty.d2w");
pub const SETQTY_MACRO: &str = include_str!("../macros/setqty.d2w");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SmallPage,
    ScanReport,
    BigReport,
    WriteMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SmallPage,
        Workload::ScanReport,
        Workload::BigReport,
        Workload::WriteMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallPage => "small_page",
            Workload::ScanReport => "scan_report",
            Workload::BigReport => "big_report",
            Workload::WriteMix => "write_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Customers in the `orders` fixture (0 for `scan_report`). Customer `c`
    /// has `orders_of(c)` orders, five on average.
    fn customers(self) -> u32 {
        match self {
            Workload::SmallPage => 1_000,
            Workload::ScanReport => 0,
            Workload::BigReport => 800,
            Workload::WriteMix => 4_000,
        }
    }

    /// Rows in the `orders` fixture.
    pub fn orders(self) -> u32 {
        self.customers() * 5
    }

    /// Rows in the `urldb` fixture.
    fn urls(self) -> usize {
        match self {
            Workload::ScanReport => 10_000,
            _ => 0,
        }
    }

    /// Rows the fixture loads in total (the recovery log's record count).
    pub fn fixture_rows(self) -> usize {
        self.orders() as usize + self.urls()
    }

    /// The macros the child installs, by name.
    pub fn macros(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Workload::SmallPage | Workload::BigReport => &[("orders.d2w", ORDERS_MACRO)],
            Workload::ScanReport => &[("urlquery.d2w", URLQUERY_MACRO)],
            Workload::WriteMix => &[("getqty.d2w", GETQTY_MACRO), ("setqty.d2w", SETQTY_MACRO)],
        }
    }

    /// The table whose presence means the fixture is already loaded.
    pub fn main_table(self) -> &'static str {
        match self {
            Workload::ScanReport => "urldb",
            _ => "orders",
        }
    }
}

fn orders_of(customer: u32) -> u32 {
    3 + customer % 5
}

fn base_quantity(orderid: u32) -> u32 {
    1 + orderid % 9
}

const PRODUCTS: [&str; 12] = [
    "bolt", "gear", "valve", "rotor", "flange", "gasket", "spring", "washer", "bearing", "piston",
    "sprocket", "coupling",
];

struct UrlRow {
    url: String,
    title: String,
    description: Option<String>,
}

/// Pronounceable lowercase pseudo-words; lowercase only, so `LIKE` and the
/// oracle's substring test cannot disagree about case.
fn vocabulary(rng: &mut Rng) -> Vec<String> {
    const ONSETS: [&str; 16] = [
        "b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "st", "tr",
    ];
    const VOWELS: [&str; 5] = ["a", "e", "i", "o", "u"];
    (0..600)
        .map(|_| {
            let syllables = 2 + rng.below(3);
            (0..syllables)
                .map(|_| {
                    format!(
                        "{}{}",
                        ONSETS[rng.below(16) as usize],
                        VOWELS[rng.below(5) as usize]
                    )
                })
                .collect()
        })
        .collect()
}

fn phrase(rng: &mut Rng, vocab: &[String], words: u64) -> String {
    (0..words)
        .map(|_| vocab[rng.below(vocab.len() as u64) as usize].as_str())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Everything the generator side knows about a workload's data.
pub struct Fixture {
    pub workload: Workload,
    urls: Vec<UrlRow>,
    /// The `scan_report` search strings, with match counts filled on demand.
    searches: Vec<(String, OnceLock<usize>)>,
    zipf: Zipf,
    /// `write_mix`: the last acknowledged quantity per order id. Lanes own
    /// disjoint ids, so no two threads ever touch one slot at once.
    quantities: Vec<AtomicU32>,
}

impl Fixture {
    pub fn new(workload: Workload) -> Arc<Fixture> {
        let mut rng = Rng::new(FIXTURE_SEED);
        let vocab = vocabulary(&mut rng);
        let urls: Vec<UrlRow> = (0..workload.urls())
            .map(|serial| UrlRow {
                url: format!(
                    "http://www.{}{serial}.example/{}.html",
                    vocab[rng.below(600) as usize],
                    vocab[rng.below(600) as usize]
                ),
                title: {
                    let words = 2 + rng.below(3);
                    phrase(&mut rng, &vocab, words)
                },
                description: (rng.below(100) < 85).then(|| {
                    let words = 5 + rng.below(8);
                    phrase(&mut rng, &vocab, words)
                }),
            })
            .collect();
        let mut trigrams: Vec<String> = Vec::new();
        if workload == Workload::ScanReport {
            for word in &vocab {
                for i in 0..word.len().saturating_sub(2) {
                    trigrams.push(word[i..i + 3].to_owned());
                }
            }
            trigrams.sort();
            trigrams.dedup();
            // Fisher-Yates with the fixture stream, then the first 500.
            for i in (1..trigrams.len()).rev() {
                trigrams.swap(i, rng.below(i as u64 + 1) as usize);
            }
            trigrams.truncate(SEARCH_STRINGS);
            assert_eq!(trigrams.len(), SEARCH_STRINGS, "vocabulary too small");
        }
        let quantities = if workload == Workload::WriteMix {
            (0..=workload.orders())
                .map(|id| AtomicU32::new(base_quantity(id)))
                .collect()
        } else {
            Vec::new()
        };
        Arc::new(Fixture {
            workload,
            urls,
            searches: trigrams.into_iter().map(|s| (s, OnceLock::new())).collect(),
            zipf: Zipf::new(workload.customers().max(1) as usize, 1.0),
            quantities,
        })
    }

    /// Forget every acknowledged update: the model of a freshly loaded
    /// database again.
    pub fn reset_model(&self) {
        for (id, qty) in self.quantities.iter().enumerate() {
            qty.store(base_quantity(id as u32), Ordering::Relaxed);
        }
    }

    /// The statements that create and fill the fixture, in order.
    pub fn load_sql(&self) -> Vec<String> {
        let mut out = Vec::new();
        let w = self.workload;
        if w.orders() > 0 {
            out.push(
                "CREATE TABLE orders (orderid INTEGER PRIMARY KEY, custid INTEGER NOT NULL, \
                 product_name VARCHAR(60), quantity INTEGER, price DOUBLE)"
                    .to_owned(),
            );
            out.push("CREATE INDEX orders_cust ON orders (custid)".to_owned());
            out.push("CREATE INDEX orders_product ON orders (product_name)".to_owned());
            let mut rows = Vec::with_capacity(w.orders() as usize);
            let mut orderid = 0u32;
            for customer in 1..=w.customers() {
                for _ in 0..orders_of(customer) {
                    orderid += 1;
                    rows.push(format!(
                        "({orderid}, {customer}, '{} {}', {}, {}.{:02})",
                        PRODUCTS[(orderid * 7) as usize % PRODUCTS.len()],
                        orderid % 40,
                        base_quantity(orderid),
                        1 + orderid * 37 % 90,
                        orderid * 13 % 100,
                    ));
                }
            }
            assert_eq!(orderid, w.orders());
            batch_inserts("orders", &rows, &mut out);
        }
        if !self.urls.is_empty() {
            out.push(
                "CREATE TABLE urldb (url VARCHAR(255) NOT NULL, title VARCHAR(120), \
                 description VARCHAR(400))"
                    .to_owned(),
            );
            out.push("CREATE INDEX urldb_title ON urldb (title)".to_owned());
            let rows: Vec<String> = self
                .urls
                .iter()
                .map(|r| match &r.description {
                    Some(d) => format!("('{}', '{}', '{d}')", r.url, r.title),
                    None => format!("('{}', '{}', NULL)", r.url, r.title),
                })
                .collect();
            batch_inserts("urldb", &rows, &mut out);
        }
        out
    }

    fn matches(&self, idx: usize) -> usize {
        let (needle, count) = &self.searches[idx];
        *count.get_or_init(|| {
            self.urls
                .iter()
                .filter(|r| {
                    r.title.contains(needle.as_str())
                        || r.description
                            .as_deref()
                            .is_some_and(|d| d.contains(needle.as_str()))
                })
                .count()
        })
    }

    /// A cheap request whose correct answer proves the fixture is loaded (or
    /// recovered) and the macros are installed.
    pub fn probe(&self) -> Request {
        match self.workload {
            Workload::SmallPage | Workload::BigReport => orders_report(Some(1)),
            Workload::ScanReport => self.search(0),
            Workload::WriteMix => get_qty(1),
        }
    }

    fn search(&self, idx: usize) -> Request {
        Request {
            path: format!(
                "{CGI}/urlquery.d2w/report?SEARCH={}&USE_TITLE=yes&USE_DESC=yes&DBFIELDS=title\
                 &RPT_MAX_ROWS={SCAN_MAX_ROWS}",
                self.searches[idx].0
            ),
            kind: Kind::Search { idx: idx as u32 },
        }
    }

    /// The statement the macro renders for `req` (none for the form page):
    /// what the SQL-layer probes parse and execute.
    pub fn sql_for(&self, req: &Request) -> Option<String> {
        Some(match req.kind {
            Kind::Form => return None,
            Kind::Orders { customer } => format!(
                "SELECT orderid, custid, product_name, quantity, price\nFROM orders {} ORDER BY orderid",
                customer.map_or(String::new(), |c| format!("WHERE custid = {c}"))
            ),
            Kind::Search { idx } => {
                let s = &self.searches[idx as usize].0;
                format!(
                    "SELECT url, title\nFROM urldb WHERE urldb.title LIKE '%{s}%' OR \
                     urldb.description LIKE '%{s}%' ORDER BY title"
                )
            }
            Kind::GetQty { id } => format!("SELECT orderid, quantity FROM orders WHERE orderid = {id}"),
            Kind::SetQty { id, qty } => {
                format!("UPDATE orders SET quantity = {qty} WHERE orderid = {id}")
            }
        })
    }

    /// The `i`-th single-row `UPDATE` of the write probes, on the workload's
    /// own main table so the cost of copying that table shows.
    pub fn update_sql(&self, i: usize) -> String {
        match self.workload {
            Workload::ScanReport => {
                let row = &self.urls[i * 7919 % self.urls.len()];
                format!(
                    "UPDATE urldb SET description = 'probe {i}' WHERE url = '{}'",
                    row.url
                )
            }
            w => format!(
                "UPDATE orders SET quantity = {} WHERE orderid = {}",
                1 + i % 90,
                1 + i * 7919 % w.orders() as usize
            ),
        }
    }

    /// Is `req` one of the requests the workload's latency is about? The
    /// `UPDATE`s on `write_mix`, every request elsewhere.
    pub fn is_subject(&self, req: &Request) -> bool {
        req.kind.is_write() || self.workload != Workload::WriteMix
    }

    /// Does `body` answer `req` correctly? Every response gets the shallow
    /// check (status, the footer that carries `$(ROW_NUM)` or the quantity);
    /// `deep` also counts the rendered rows. An acknowledged `setqty` is
    /// recorded, so later reads of that order must see it.
    pub fn check(&self, req: &Request, status: u16, body: &[u8], deep: bool) -> bool {
        if status != 200 {
            return false;
        }
        let tail = &body[body.len().saturating_sub(400)..];
        match req.kind {
            Kind::Form => {
                contains(tail, b"</FORM>") && (!deep || contains(body, b"NAME=\"cust_inp\""))
            }
            Kind::Orders { customer } => {
                let rows = customer.map_or(self.workload.orders(), orders_of);
                contains(tail, format!("<P>{rows} order(s).</P>").as_bytes())
                    && (!deep || count(body, b"<TR><TD>") == rows as usize)
            }
            Kind::Search { idx } => {
                let m = self.matches(idx as usize);
                contains(tail, format!("<P>{m} match(es).</P>").as_bytes())
                    && (!deep || count(body, b"<LI>") == m.min(SCAN_MAX_ROWS))
            }
            Kind::GetQty { id } => {
                let qty = self.quantities[id as usize].load(Ordering::Relaxed);
                contains(body, format!("<P>order {id} quantity {qty}</P>").as_bytes())
                    && contains(tail, b"<P>1 row(s).</P>")
            }
            Kind::SetQty { id, qty } => {
                let ok = contains(body, format!("<P>order {id} set to {qty}</P>").as_bytes())
                    && !contains(body, b"no such order");
                if ok {
                    self.quantities[id as usize].store(qty, Ordering::Relaxed);
                }
                ok
            }
        }
    }
}

fn batch_inserts(table: &str, rows: &[String], out: &mut Vec<String>) {
    for chunk in rows.chunks(INSERT_BATCH) {
        out.push(format!("INSERT INTO {table} VALUES {}", chunk.join(", ")));
    }
}

fn contains(hay: &[u8], needle: &[u8]) -> bool {
    crate::wire::find(hay, needle).is_some()
}

fn count(hay: &[u8], needle: &[u8]) -> usize {
    hay.windows(needle.len()).filter(|w| *w == needle).count()
}

fn orders_report(customer: Option<u32>) -> Request {
    Request {
        path: match customer {
            Some(c) => format!("{CGI}/orders.d2w/report?cust_inp={c}"),
            None => format!("{CGI}/orders.d2w/report"),
        },
        kind: Kind::Orders { customer },
    }
}

pub fn get_qty(id: u32) -> Request {
    Request {
        path: format!("{CGI}/getqty.d2w/report?id={id}"),
        kind: Kind::GetQty { id },
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Form,
    /// The order report of one customer, or of everybody.
    Orders {
        customer: Option<u32>,
    },
    Search {
        idx: u32,
    },
    GetQty {
        id: u32,
    },
    SetQty {
        id: u32,
        qty: u32,
    },
}

impl Kind {
    /// Index for "the first response of each kind gets the deep check".
    pub fn ordinal(self) -> usize {
        match self {
            Kind::Form => 0,
            Kind::Orders { .. } => 1,
            Kind::Search { .. } => 2,
            Kind::GetQty { .. } => 3,
            Kind::SetQty { .. } => 4,
        }
    }

    pub fn is_write(self) -> bool {
        matches!(self, Kind::SetQty { .. })
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request target: path plus query string.
    pub path: String,
    pub kind: Kind,
}

/// One lane of a workload's seeded request stream. `lane`/`lanes` partition
/// the `write_mix` order ids so each connection can check its own writes
/// without racing another's.
pub struct Generator {
    fixture: Arc<Fixture>,
    rng: Rng,
    lane: u32,
    lanes: u32,
    /// Requests made so far.
    made: u64,
    /// Where in the current block of `WRITE_EVERY` the update goes.
    write_at: u64,
}

impl Generator {
    pub fn new(fixture: &Arc<Fixture>, seed: u64, stream: u64, lane: u32, lanes: u32) -> Generator {
        Generator {
            fixture: Arc::clone(fixture),
            rng: Rng::stream(seed, stream * 16 + u64::from(lane)),
            lane,
            lanes,
            made: 0,
            write_at: 0,
        }
    }

    pub fn next(&mut self) -> Request {
        let w = self.fixture.workload;
        let in_block = self.made % WRITE_EVERY;
        self.made += 1;
        match w {
            Workload::SmallPage => {
                if self.rng.below(100) < FORM_PCT {
                    return Request {
                        path: format!("{CGI}/orders.d2w/input"),
                        kind: Kind::Form,
                    };
                }
                // Spread the popular ranks over the id space (7919 is coprime
                // to the customer count, so this is a bijection).
                let rank = self.fixture.zipf.sample(&mut self.rng) as u32;
                orders_report(Some(rank * 7919 % w.customers() + 1))
            }
            Workload::ScanReport => {
                let idx = self.rng.below(SEARCH_STRINGS as u64) as usize;
                self.fixture.search(idx)
            }
            Workload::BigReport => orders_report(None),
            Workload::WriteMix => {
                let per_lane = u64::from(w.orders() / self.lanes);
                let id = 1 + self.lane + self.lanes * self.rng.below(per_lane) as u32;
                if in_block == 0 {
                    self.write_at = self.rng.below(WRITE_EVERY);
                }
                if in_block == self.write_at {
                    let qty = 1 + self.rng.below(99) as u32;
                    Request {
                        path: format!("{CGI}/setqty.d2w/report?id={id}&qty={qty}"),
                        kind: Kind::SetQty { id, qty },
                    }
                } else {
                    get_qty(id)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(w: Workload, seed: u64) -> Vec<Request> {
        let fixture = Fixture::new(w);
        let mut gen = Generator::new(&fixture, seed, 0, 0, 1);
        (0..200).map(|_| gen.next()).collect()
    }

    #[test]
    fn equal_seeds_give_equal_requests_and_different_seeds_do_not() {
        for w in Workload::ALL {
            assert_eq!(stream(w, 5), stream(w, 5), "{}", w.name());
            if w != Workload::BigReport {
                assert_ne!(stream(w, 5), stream(w, 6), "{}", w.name());
            }
        }
    }

    #[test]
    fn fixtures_have_the_stated_sizes() {
        for (w, rows) in [
            (Workload::SmallPage, 5_000),
            (Workload::ScanReport, 10_000),
            (Workload::BigReport, 4_000),
            (Workload::WriteMix, 20_000),
        ] {
            let fixture = Fixture::new(w);
            assert_eq!(w.fixture_rows(), rows);
            let sql = fixture.load_sql();
            let inserts = sql.iter().filter(|s| s.starts_with("INSERT")).count();
            assert_eq!(inserts, rows / INSERT_BATCH);
            assert_eq!(sql, Fixture::new(w).load_sql(), "fixture must not vary");
        }
    }

    #[test]
    fn write_lanes_own_disjoint_ids() {
        let fixture = Fixture::new(Workload::WriteMix);
        for lane in 0..2 {
            let mut gen = Generator::new(&fixture, 3, 1, lane, 2);
            for _ in 0..500 {
                let id = match gen.next().kind {
                    Kind::GetQty { id } | Kind::SetQty { id, .. } => id,
                    other => panic!("unexpected {other:?}"),
                };
                assert!((1..=20_000).contains(&id));
                assert_eq!((id - 1) % 2, lane);
            }
        }
    }

    #[test]
    fn write_mix_updates_once_per_block_at_a_seeded_position() {
        let requests = stream(Workload::WriteMix, 9);
        let positions: Vec<usize> = requests
            .chunks(WRITE_EVERY as usize)
            .map(|block| {
                let writes: Vec<usize> = (0..block.len())
                    .filter(|i| block[*i].kind.is_write())
                    .collect();
                assert_eq!(writes.len(), 1, "one update per block");
                writes[0]
            })
            .collect();
        assert!(positions.iter().any(|p| *p != positions[0]));
    }

    #[test]
    fn oracle_accepts_the_right_page_and_rejects_the_wrong_one() {
        let fixture = Fixture::new(Workload::WriteMix);
        let set = Request {
            path: String::new(),
            kind: Kind::SetQty { id: 7, qty: 42 },
        };
        let get = get_qty(7);
        let page = |q: u32| format!("<P>order 7 quantity {q}</P>\n<P>1 row(s).</P>\n").into_bytes();
        assert!(fixture.check(&get, 200, &page(base_quantity(7)), true));
        assert!(!fixture.check(
            &set,
            200,
            b"<P>no such order</P><P>order 7 set to 42</P>",
            true
        ));
        assert!(fixture.check(&set, 200, b"<P>order 7 set to 42</P>", true));
        // Read-your-writes: the old quantity is now a wrong answer.
        assert!(!fixture.check(&get, 200, &page(base_quantity(7)), false));
        assert!(fixture.check(&get, 200, &page(42), false));
        assert!(!fixture.check(&get, 503, &page(42), false));

        let scan = Fixture::new(Workload::ScanReport);
        let req = scan.probe();
        let m = scan.matches(0);
        let body = format!(
            "{}<P>{m} match(es).</P>",
            "<LI>x".repeat(m.min(SCAN_MAX_ROWS))
        );
        assert!(scan.check(&req, 200, body.as_bytes(), true));
        assert!(!scan.check(&req, 200, format!("<LI>x{body}").as_bytes(), true));
    }
}
