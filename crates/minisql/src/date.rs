//! Civil-date arithmetic: days-since-epoch ↔ (year, month, day).
//!
//! The DATE type stores days since 1970-01-01 (proleptic Gregorian). The
//! conversions are Howard Hinnant's `days_from_civil` / `civil_from_days`
//! algorithms, exact over the full supported range. A DATE holds DB2's
//! range, 0001-01-01 through 9999-12-31: parsing refuses text outside it and
//! date arithmetic that leaves it raises SQLCODE −183.

use std::ops::RangeInclusive;

/// Days since the epoch of 0001-01-01 and 9999-12-31, the DATE range.
pub(crate) const RANGE: RangeInclusive<i64> = -719_162..=2_932_896;

/// Days since 1970-01-01 for a civil date. Returns `None` for invalid
/// month/day combinations (including bad leap days).
pub fn days_from_civil(year: i32, month: u32, day: u32) -> Option<i64> {
    if !(1..=12).contains(&month) || day < 1 || day > days_in_month(year, month) {
        return None;
    }
    let y = i64::from(year) - i64::from(month <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let doy = i64::from((153 * (if month > 2 { month - 3 } else { month + 9 }) + 2) / 5 + day - 1);
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    Some(era * 146_097 + doe - 719_468)
}

/// Civil date for days since 1970-01-01.
pub fn civil_from_days(days: i64) -> (i32, u32, u32) {
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    ((y + i64::from(m <= 2)) as i32, m, d)
}

/// Days in a month, honoring leap years.
pub fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 if is_leap(year) => 29,
        2 => 28,
        _ => 0,
    }
}

/// Gregorian leap-year rule.
pub fn is_leap(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

/// Parse `YYYY-MM-DD` into days since epoch; `None` outside 0001-01-01 to
/// 9999-12-31.
pub fn parse_date(text: &str) -> Option<i64> {
    let mut parts = text.trim().split('-');
    let year: i32 = parts.next()?.parse().ok()?;
    let month: u32 = parts.next()?.parse().ok()?;
    let day: u32 = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    days_from_civil(year, month, day).filter(|d| RANGE.contains(d))
}

/// Format days since epoch as `YYYY-MM-DD`.
pub fn format_date(days: i64) -> String {
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_and_known_dates() {
        assert_eq!(days_from_civil(1970, 1, 1), Some(0));
        assert_eq!(days_from_civil(1970, 1, 2), Some(1));
        assert_eq!(days_from_civil(1969, 12, 31), Some(-1));
        // SIGMOD '96 was in June 1996.
        assert_eq!(days_from_civil(1996, 6, 4), Some(9651));
        assert_eq!(civil_from_days(9651), (1996, 6, 4));
    }

    #[test]
    fn round_trip_across_centuries() {
        for days in (-200_000..200_000).step_by(373) {
            let (y, m, d) = civil_from_days(days);
            assert_eq!(days_from_civil(y, m, d), Some(days), "{y}-{m}-{d}");
        }
    }

    #[test]
    fn leap_rules() {
        assert!(is_leap(1996));
        assert!(is_leap(2000));
        assert!(!is_leap(1900));
        assert!(!is_leap(1995));
        assert_eq!(days_in_month(1996, 2), 29);
        assert_eq!(days_in_month(1995, 2), 28);
    }

    #[test]
    fn parse_and_format() {
        assert_eq!(parse_date("1996-06-04"), Some(9651));
        assert_eq!(format_date(9651), "1996-06-04");
        assert_eq!(parse_date(" 1970-01-01 "), Some(0));
        assert_eq!(parse_date("1996-02-30"), None);
        assert_eq!(parse_date("1996-13-01"), None);
        assert_eq!(parse_date("1996-06"), None);
        assert_eq!(parse_date("1996-06-04-01"), None);
        assert_eq!(parse_date("not a date"), None);
        assert_eq!(format_date(parse_date("0071-01-01").unwrap()), "0071-01-01");
    }

    #[test]
    fn range_is_0001_to_9999() {
        assert_eq!(days_from_civil(1, 1, 1), Some(*RANGE.start()));
        assert_eq!(days_from_civil(9999, 12, 31), Some(*RANGE.end()));
        assert_eq!(parse_date("0001-01-01"), Some(*RANGE.start()));
        assert_eq!(parse_date("9999-12-31"), Some(*RANGE.end()));
        assert_eq!(parse_date("0000-12-31"), None);
        assert_eq!(parse_date("10000-01-01"), None);
    }
}
