//! The paper's text file formats.
//!
//! Appendix A defines three whitespace-separated record files describing
//! a network:
//!
//! * the **call-file** — `<INSTANCE> <TEMPLATE>` records naming the
//!   sub-networks,
//! * the **io-file** — `<TERMINAL> <TYPE>` records naming the system
//!   terminals,
//! * the **net-list-file** — `<NET> <INSTANCE> <TERMINAL>` records
//!   attaching pins to nets, with the pseudo-instance `root` denoting a
//!   system terminal.
//!
//! Appendix B defines the *quinto* module description, handled by
//! [`quinto`]; Appendix C's library representation of a module symbol
//! lives in [`template_repr`].
//!
//! This module holds the writers. Reading goes through the netlist
//! doctor ([`crate::doctor`]), the one parser for Appendices A and B:
//! under [`InputPolicy::Strict`](crate::doctor::InputPolicy::Strict) it
//! rejects any defective input with every diagnostic at once, and the
//! other policies repair what has a documented fix.
//!
//! # Examples
//!
//! ```
//! use netart_netlist::doctor::{doctor_module, doctor_network, InputPolicy};
//! use netart_netlist::{format, Library};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (inv, _) = doctor_module(
//!     "module inv 40 20\nin a 0 10\nout y 40 10\n",
//!     InputPolicy::Strict,
//! )?;
//! let mut lib = Library::new();
//! lib.add_template(inv)?;
//! let (network, report) = doctor_network(
//!     lib,
//!     "n0 u0 y\nn0 u1 a\nnin root in\nnin u0 a\n",
//!     "u0 inv\nu1 inv\n",
//!     Some("in in\n"),
//!     InputPolicy::Strict,
//! )?;
//! assert_eq!(network.module_count(), 2);
//! assert!(report.diagnostics.is_empty());
//! assert_eq!(format::write_call_file(&network), "u0 inv\nu1 inv\n");
//! # Ok(())
//! # }
//! ```

pub mod quinto;
pub mod template_repr;

use crate::Network;

/// Writes the call-file for a network.
pub fn write_call_file(network: &Network) -> String {
    let mut out = String::new();
    for m in network.modules() {
        let inst = network.instance(m);
        out.push_str(inst.name());
        out.push(' ');
        out.push_str(network.template_of(m).name());
        out.push('\n');
    }
    out
}

/// Writes the io-file for a network.
pub fn write_io_file(network: &Network) -> String {
    let mut out = String::new();
    for st in network.system_terms() {
        let t = network.system_term(st);
        out.push_str(t.name());
        out.push(' ');
        out.push_str(&t.ty().to_string());
        out.push('\n');
    }
    out
}

/// Writes the net-list-file for a network.
pub fn write_net_list_file(network: &Network) -> String {
    let mut out = String::new();
    for n in network.nets() {
        let net = network.net(n);
        for pin in net.pins() {
            out.push_str(net.name());
            out.push(' ');
            match *pin {
                crate::Pin::Sub { module, term } => {
                    out.push_str(network.instance(module).name());
                    out.push(' ');
                    out.push_str(network.template_of(module).terminals()[term].name());
                }
                crate::Pin::System(st) => {
                    out.push_str("root ");
                    out.push_str(network.system_term(st).name());
                }
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doctor::{doctor_network, DoctorCode, InputPolicy};
    use crate::{Library, Template, TermType};

    fn lib() -> Library {
        let mut lib = Library::new();
        lib.add_template(
            Template::new("inv", (4, 2))
                .unwrap()
                .with_terminal("a", (0, 1), TermType::In)
                .unwrap()
                .with_terminal("y", (4, 1), TermType::Out)
                .unwrap(),
        )
        .unwrap();
        lib
    }

    /// Parses under `Strict` and requires a clean report: no
    /// diagnostic at all, not even a warning.
    fn parse(nets: &str, calls: &str, io: Option<&str>) -> Network {
        let (net, report) = doctor_network(lib(), nets, calls, io, InputPolicy::Strict).unwrap();
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        net
    }

    #[test]
    fn parse_minimal_network() {
        let net = parse(
            "n0 u0 y\nn0 u1 a\nnin root in\nnin u0 a\nnout u1 y\nnout root out\n",
            "u0 inv\nu1 inv\n",
            Some("in in\nout out\n"),
        );
        assert_eq!(net.module_count(), 2);
        assert_eq!(net.net_count(), 3);
        assert_eq!(net.system_term_count(), 2);
    }

    #[test]
    fn io_file_optional() {
        let net = parse("n0 u0 y\nn0 u1 a\n", "u0 inv\nu1 inv\n", None);
        assert_eq!(net.system_term_count(), 0);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let net = parse(
            "# the only net\n\nn0 u0 y\nn0 u1 a\n",
            "u0 inv\n\n# second\nu1 inv\n",
            None,
        );
        assert_eq!(net.net_count(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let first = |nets: &str, calls: &str| {
            let e = doctor_network(lib(), nets, calls, None, InputPolicy::Strict).unwrap_err();
            e.diagnostics[0].clone()
        };
        let d = first("", "u0 unknown_template\n");
        assert_eq!((d.code, d.line), (DoctorCode::UnknownTemplate, 1));
        assert!(d.message.contains("unknown template"), "{d}");

        let d = first("n0 u0 y\nn0 nobody a\n", "u0 inv\n");
        assert_eq!((d.code, d.line), (DoctorCode::UnknownInstance, 2));

        let d = first("n0 u0 zz\n", "u0 inv\n");
        assert_eq!((d.code, d.line), (DoctorCode::UnknownTerminal, 1));
        assert!(d.message.contains("no terminal"), "{d}");

        let d = first("n0 root missing\n", "u0 inv\n");
        assert!(d.message.contains("unknown system terminal"), "{d}");

        let d = first("only-two-fields u0\n", "u0 inv\n");
        assert_eq!((d.code, d.line), (DoctorCode::MalformedRecord, 1));
        assert!(d.message.contains("3 fields"), "{d}");
    }

    #[test]
    fn round_trip() {
        let net = parse(
            "n0 u0 y\nn0 u1 a\nnin root in\nnin u0 a\n",
            "u0 inv\nu1 inv\n",
            Some("in in\n"),
        );
        let calls = write_call_file(&net);
        let io = write_io_file(&net);
        let nets = write_net_list_file(&net);
        let net2 = parse(&nets, &calls, Some(&io));
        assert_eq!(net2.module_count(), net.module_count());
        assert_eq!(net2.net_count(), net.net_count());
        assert_eq!(net2.system_term_count(), net.system_term_count());
        for n in net.nets() {
            let name = net.net(n).name();
            let n2 = net2.net_by_name(name).unwrap();
            assert_eq!(net2.net(n2).pins().len(), net.net(n).pins().len());
        }
    }
}
