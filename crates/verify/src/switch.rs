//! Switch-level cases: small ratioed nMOS gates run through the lowering.

#[cfg(test)]
mod tests {
    use crate::netlist::network_from_netlist;
    use crate::VerifyError;
    use silc_netlist::Netlist;
    use std::collections::BTreeMap;

    /// Lowers `n` and evaluates it at one input assignment, returning the
    /// level of every pulled-up net by name.
    fn eval(n: &Netlist, inputs: &[(&str, bool)]) -> BTreeMap<String, bool> {
        let net = network_from_netlist(n).unwrap();
        let words: Vec<u64> = net
            .input_names()
            .iter()
            .map(|name| {
                let (_, v) = inputs
                    .iter()
                    .find(|(nm, _)| nm == name)
                    .unwrap_or_else(|| panic!("no value for input `{name}`"));
                u64::from(*v)
            })
            .collect();
        let values = net.eval64(&words);
        net.outputs()
            .iter()
            .map(|(name, id)| (name.clone(), values[id.index()] & 1 == 1))
            .collect()
    }

    #[test]
    fn inverter_inverts() {
        let mut n = Netlist::new("inv");
        let inn = n.add_net("in");
        let out = n.add_net("out");
        let vdd = n.add_net("vdd");
        let gnd = n.add_net("gnd");
        n.add_instance("pu", "dep", &[("gate", out), ("src", out), ("drn", vdd)])
            .unwrap();
        n.add_instance("pd", "enh", &[("gate", inn), ("src", gnd), ("drn", out)])
            .unwrap();
        assert!(eval(&n, &[("in", false)])["out"]);
        assert!(!eval(&n, &[("in", true)])["out"]);
    }

    #[test]
    fn nand_gate() {
        // Two enhancement pulldowns in series.
        let mut n = Netlist::new("nand");
        let a = n.add_net("a");
        let b = n.add_net("b");
        let out = n.add_net("out");
        let mid = n.add_net("mid");
        let vdd = n.add_net("vdd");
        let gnd = n.add_net("gnd");
        n.add_instance("pu", "dep", &[("gate", out), ("src", out), ("drn", vdd)])
            .unwrap();
        n.add_instance("p1", "enh", &[("gate", a), ("src", mid), ("drn", out)])
            .unwrap();
        n.add_instance("p2", "enh", &[("gate", b), ("src", gnd), ("drn", mid)])
            .unwrap();
        for (av, bv, expect) in [
            (false, false, true),
            (false, true, true),
            (true, false, true),
            (true, true, false),
        ] {
            let r = eval(&n, &[("a", av), ("b", bv)]);
            assert_eq!(r["out"], expect, "a={av} b={bv}");
        }
    }

    #[test]
    fn nor_gate() {
        // Two parallel pulldowns.
        let mut n = Netlist::new("nor");
        let a = n.add_net("a");
        let b = n.add_net("b");
        let out = n.add_net("out");
        let vdd = n.add_net("vdd");
        let gnd = n.add_net("gnd");
        n.add_instance("pu", "dep", &[("gate", out), ("src", out), ("drn", vdd)])
            .unwrap();
        n.add_instance("p1", "enh", &[("gate", a), ("src", gnd), ("drn", out)])
            .unwrap();
        n.add_instance("p2", "enh", &[("gate", b), ("src", gnd), ("drn", out)])
            .unwrap();
        for (av, bv, expect) in [
            (false, false, true),
            (false, true, false),
            (true, false, false),
            (true, true, false),
        ] {
            let r = eval(&n, &[("a", av), ("b", bv)]);
            assert_eq!(r["out"], expect, "a={av} b={bv}");
        }
    }

    #[test]
    fn two_stage_buffer() {
        // Two chained inverters: out follows in after two stages.
        let mut n = Netlist::new("buf");
        let inn = n.add_net("in");
        let mid = n.add_net("mid");
        let out = n.add_net("out");
        let vdd = n.add_net("vdd");
        let gnd = n.add_net("gnd");
        n.add_instance("pu1", "dep", &[("gate", mid), ("src", mid), ("drn", vdd)])
            .unwrap();
        n.add_instance("pd1", "enh", &[("gate", inn), ("src", gnd), ("drn", mid)])
            .unwrap();
        n.add_instance("pu2", "dep", &[("gate", out), ("src", out), ("drn", vdd)])
            .unwrap();
        n.add_instance("pd2", "enh", &[("gate", mid), ("src", gnd), ("drn", out)])
            .unwrap();
        let r = eval(&n, &[("in", true)]);
        assert!(!r["mid"]);
        assert!(r["out"]);
        let r = eval(&n, &[("in", false)]);
        assert!(r["mid"]);
        assert!(!r["out"]);
    }

    #[test]
    fn foreign_kinds_rejected() {
        let mut n = Netlist::new("t");
        let a = n.add_net("a");
        let vdd = n.add_net("vdd");
        n.add_net("gnd");
        n.add_instance("r", "resistor", &[("a", a), ("b", vdd)])
            .unwrap();
        let err = network_from_netlist(&n).unwrap_err();
        assert!(matches!(err, VerifyError::Malformed { .. }), "{err}");
    }
}
