//! Crash-recovery harness: prove that kill -9 cannot corrupt the database.
//!
//! Two modes, driven by `scripts/ci.sh` (and usable by hand):
//!
//! ```sh
//! DBGW_DATA_DIR=/tmp/dbgw-crash cargo run --example crash_recovery -- workload &
//! sleep 2; kill -9 $!          # power cut mid-commit-stream
//! DBGW_DATA_DIR=/tmp/dbgw-crash cargo run --example crash_recovery -- verify
//! ```
//!
//! * `workload` opens the durable database, seeds `bank` with
//!   [`ACCOUNTS`] accounts of [`SEED_BALANCE`] each (only when recovery came
//!   back empty), then commits an endless stream of random transfers. Each
//!   transfer is one `UPDATE` with a `CASE` expression, so statement
//!   atomicity makes the transfer atomic: the write-ahead log either has the
//!   whole transfer or none of it. After every acknowledged commit it prints
//!   `acked N` (flushed), so the harness knows work really reached the log
//!   before it pulls the plug.
//! * `verify` reopens the directory — running recovery over whatever the
//!   kill left behind, torn tail and all — and asserts the invariant
//!   transfers preserve: `SUM(balance)` is exactly
//!   `ACCOUNTS * SEED_BALANCE`. Exit code 0 means recovery held.

use dbgw_cgi::Config;
use std::io::Write;

/// Number of accounts in the seeded `bank` table.
const ACCOUNTS: i64 = 8;
/// Starting balance per account; the conserved sum is `ACCOUNTS * SEED_BALANCE`.
const SEED_BALANCE: i64 = 1000;

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();
    let config = Config::from_env().unwrap_or_else(|e| {
        eprintln!("crash_recovery: {e}");
        std::process::exit(2);
    });
    if config.data_dir.is_none() {
        eprintln!("crash_recovery: set DBGW_DATA_DIR to a scratch directory");
        std::process::exit(2);
    }
    match mode.as_str() {
        "workload" => workload(&config),
        "verify" => verify(&config),
        _ => {
            eprintln!("usage: crash_recovery <workload|verify>");
            std::process::exit(2);
        }
    }
}

fn workload(config: &Config) {
    let db = config.open_database().expect("open durable database");
    if db.pin().tables.is_empty() {
        let mut script =
            String::from("CREATE TABLE bank (id INTEGER PRIMARY KEY, balance INTEGER);\n");
        for id in 1..=ACCOUNTS {
            script.push_str(&format!(
                "INSERT INTO bank VALUES ({id}, {SEED_BALANCE});\n"
            ));
        }
        db.run_script(&script).expect("seed bank");
    }
    let mut conn = db.connect();
    let stdout = std::io::stdout();
    // Deterministic LCG; the point is churn, not randomness quality.
    let mut rng: u64 = 0x2545F4914F6CDD1D;
    let mut acked: u64 = 0;
    loop {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let from = (rng >> 33) as i64 % ACCOUNTS + 1;
        let to = (rng >> 13) as i64 % ACCOUNTS + 1;
        if from == to {
            continue;
        }
        let amount = (rng >> 3) as i64 % 50 + 1;
        // One statement, one WAL record: the transfer is atomic under crash.
        conn.execute(&format!(
            "UPDATE bank SET balance = balance + \
             CASE id WHEN {from} THEN -{amount} WHEN {to} THEN {amount} ELSE 0 END \
             WHERE id IN ({from}, {to})"
        ))
        .expect("transfer");
        acked += 1;
        // Flushed ack line: whoever kills us knows this much is durable.
        let mut out = stdout.lock();
        let _ = writeln!(out, "acked {acked}");
        let _ = out.flush();
    }
}

fn verify(config: &Config) {
    let db = config.open_database().expect("recover durable database");
    let mut conn = db.connect();
    let result = conn
        .execute("SELECT SUM(balance) FROM bank")
        .expect("sum balances");
    let rows = &result.rows().expect("rows").rows;
    let sum = match rows[0][0] {
        minisql::Value::Int(n) => n,
        ref v => panic!("unexpected SUM type: {v:?}"),
    };
    let expected = ACCOUNTS * SEED_BALANCE;
    println!("balance sum after recovery: {sum} (expected {expected})");
    assert_eq!(sum, expected, "recovery broke the transfer invariant");
    println!("crash recovery OK");
}
