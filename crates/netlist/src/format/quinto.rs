//! The *quinto* module description format (Appendix B of the paper).
//!
//! A module file consists of a heading and one record per terminal:
//!
//! ```text
//! module <MODULE-NAME> <WIDTH> <HEIGHT>
//! <TYPE> <TERM-NAME> <X> <Y>
//! ...
//! ```
//!
//! The appendix imposes that width, height and terminal coordinates are
//! divisible by 10 (the editor's display grid) and that terminals lie on
//! the module outline. Internally the generator works on the coarse
//! track grid, so the doctor
//! ([`doctor_module`](crate::doctor::doctor_module)) divides all
//! coordinates by 10 and [`write_module`] multiplies them back; a
//! read/write round trip is exact.

use crate::Template;

/// The editor grid: one track of the generator's grid is this many
/// quinto units.
pub(crate) const GRID: i32 = 10;

/// Writes a [`Template`] as a quinto module description.
pub fn write_module(template: &Template) -> String {
    let (w, h) = template.size();
    let mut out = format!("module {} {} {}\n", template.name(), w * GRID, h * GRID);
    for t in template.terminals() {
        out.push_str(&format!(
            "{} {} {} {}\n",
            t.ty(),
            t.name(),
            t.offset().x * GRID,
            t.offset().y * GRID
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doctor::{doctor_module, Diagnostic, DoctorCode, InputPolicy};

    const INV: &str = "module inv 40 20\nin a 0 10\nout y 40 10\n";

    /// Reads under `Strict` and requires a clean report.
    fn parse(src: &str) -> Template {
        let (t, report) = doctor_module(src, InputPolicy::Strict).unwrap();
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        t
    }

    /// The first diagnostic of a `Strict` rejection.
    fn rejection(src: &str) -> Diagnostic {
        let e = doctor_module(src, InputPolicy::Strict).unwrap_err();
        e.diagnostics[0].clone()
    }

    #[test]
    fn parse_scales_to_track_grid() {
        let t = parse(INV);
        assert_eq!(t.name(), "inv");
        assert_eq!(t.size(), (4, 2));
        assert_eq!(t.terminal_count(), 2);
        assert_eq!(t.terminals()[0].offset().y, 1);
    }

    #[test]
    fn round_trip_is_exact() {
        let t = parse(INV);
        assert_eq!(write_module(&t), INV);
        let t2 = parse(&write_module(&t));
        assert_eq!(t, t2);
    }

    #[test]
    fn rejects_off_grid_values() {
        let d = rejection("module m 45 20\n");
        assert_eq!(d.code, DoctorCode::OffGridCoordinate);
        assert!(d.message.contains("divisible by 10"), "{d}");
        let d = rejection("module m 40 20\nin a 0 15\n");
        assert_eq!((d.code, d.line), (DoctorCode::OffGridCoordinate, 2));
        assert!(d.message.contains("divisible by 10"), "{d}");
    }

    #[test]
    fn rejects_malformed_records() {
        let strict = |src| doctor_module(src, InputPolicy::Strict);
        assert!(strict("").is_err());
        assert!(strict("modul m 40 20\n").is_err());
        assert!(strict("module m 40 20\nin a 0\n").is_err());
        assert!(strict("module m 40 20\nsideways a 0 10\n").is_err());
        let d = rejection("module m 40 20\nin a 10 10\n"); // interior
        assert_eq!(d.code, DoctorCode::TerminalOffBoundary);
        assert!(d.message.contains("outline"), "{d}");
        assert!(strict("module m 40 20\nin a 50 0\n").is_err()); // outside
        let d = rejection("module m 40 20\nin a 0 10\nout a 40 10\n");
        assert_eq!((d.code, d.line), (DoctorCode::DuplicateTerminal, 3));
    }

    #[test]
    fn comments_allowed() {
        let t = parse("# inverter\nmodule inv 40 20\n\nin a 0 10\n");
        assert_eq!(t.terminal_count(), 1);
    }
}
