//! The order-entry dataset of §3.1.3 (`custid`, `product_name`).

use crate::text;
use minisql::{Database, SqlResult, Value};

/// Product names; includes the paper's `bikes`.
const PRODUCTS: &[&str] = &[
    "bikes",
    "bike bells",
    "bike pumps",
    "helmets",
    "skates",
    "skate wheels",
    "gloves",
    "jerseys",
    "water bottles",
    "locks",
    "lights",
    "trailers",
];

/// A generated shop with customers and orders.
#[derive(Debug, Clone)]
pub struct Shop {
    /// `(custid, name)` — custid starts at 10100 like the paper's example.
    pub customers: Vec<(i64, String)>,
    /// `(orderid, custid, product_name, quantity, price)`.
    pub orders: Vec<(i64, i64, String, i64, f64)>,
}

impl Shop {
    /// Generate `customers` customers with ~`orders_per_customer` orders each.
    pub fn generate(customers: usize, orders_per_customer: usize, seed: u64) -> Shop {
        let mut rng = crate::seed::rng(seed);
        let mut cust = Vec::with_capacity(customers);
        let mut orders = Vec::new();
        let mut orderid = 1i64;
        for i in 0..customers {
            let custid = 10100 + (i as i64) * 100;
            cust.push((custid, text::title(&mut rng, 2)));
            let n = rng.gen_range(0..=orders_per_customer * 2);
            for _ in 0..n {
                let product = PRODUCTS[rng.gen_range(0..PRODUCTS.len())];
                orders.push((
                    orderid,
                    custid,
                    product.to_owned(),
                    rng.gen_range(1i64..=5),
                    (rng.gen_range(200i64..20000) as f64) / 100.0,
                ));
                orderid += 1;
            }
        }
        Shop {
            customers: cust,
            orders,
        }
    }

    /// Load into a database: `customers(custid, name)` and
    /// `orders(orderid, custid, product_name, quantity, price)`, indexed the
    /// way the §3.1.3 query wants (`custid`, and `product_name` for the
    /// `LIKE 'bikes%'` prefix probe).
    pub fn load(&self, db: &Database) -> SqlResult<()> {
        db.run_script(
            "CREATE TABLE customers (custid INTEGER PRIMARY KEY, name VARCHAR(60));
             CREATE TABLE orders (orderid INTEGER PRIMARY KEY,
                                  custid INTEGER NOT NULL,
                                  product_name VARCHAR(60),
                                  quantity INTEGER,
                                  price DOUBLE);
             CREATE INDEX orders_cust ON orders (custid);
             CREATE INDEX orders_product ON orders (product_name);",
        )?;
        let mut conn = db.connect();
        conn.execute("BEGIN")?;
        for (custid, name) in &self.customers {
            conn.execute_with_params(
                "INSERT INTO customers VALUES (?, ?)",
                &[Value::Int(*custid), Value::Text(name.clone())],
            )?;
        }
        for (orderid, custid, product, qty, price) in &self.orders {
            conn.execute_with_params(
                "INSERT INTO orders VALUES (?, ?, ?, ?, ?)",
                &[
                    Value::Int(*orderid),
                    Value::Int(*custid),
                    Value::Text(product.clone()),
                    Value::Int(*qty),
                    Value::Double(*price),
                ],
            )?;
        }
        conn.execute("COMMIT")?;
        Ok(())
    }

    /// A fresh, loaded database.
    pub fn into_database(&self) -> Database {
        let db = Database::new();
        self.load(&db).expect("loading a generated shop");
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minisql::ExecResult;

    #[test]
    fn deterministic_and_loadable() {
        let a = Shop::generate(10, 3, 5);
        let b = Shop::generate(10, 3, 5);
        assert_eq!(a.orders, b.orders);
        let db = a.into_database();
        assert_eq!(db.table_len("customers").unwrap(), 10);
        assert_eq!(db.table_len("orders").unwrap(), a.orders.len());
    }

    #[test]
    fn paper_query_shape_works() {
        let shop = Shop::generate(20, 5, 6);
        let db = shop.into_database();
        let mut conn = db.connect();
        let r = conn
            .execute(
                "SELECT product_name FROM orders \
                 WHERE custid = 10100 AND product_name LIKE 'bike%'",
            )
            .unwrap();
        let ExecResult::Rows(rs) = r else { panic!() };
        let expected = shop
            .orders
            .iter()
            .filter(|(_, c, p, _, _)| *c == 10100 && p.starts_with("bike"))
            .count();
        assert_eq!(rs.rows.len(), expected);
    }
}
