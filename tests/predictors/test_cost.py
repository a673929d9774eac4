"""Storage cost model."""

from repro.predictors.cost import PC_BITS, StorageCost, storage_cost


class TestStorageCost:
    def test_headline_configuration(self):
        cost = storage_cost("AT(AHRT(512,12SR),PT(2^12,A2),)")
        assert cost.hrt_bits == 512 * 12
        assert cost.pattern_bits == 2 * 4096
        # 512/4 = 128 sets -> 7 index bits -> 23-bit tags
        assert cost.tag_bits == 512 * (PC_BITS - 7)
        assert cost.total_bits == cost.hrt_bits + cost.tag_bits + cost.pattern_bits

    def test_hhrt_saves_the_tag_store(self):
        tagged = storage_cost("AT(AHRT(512,12SR),PT(2^12,A2),)")
        tagless = storage_cost("AT(HHRT(512,12SR),PT(2^12,A2),)")
        assert tagless.tag_bits == 0
        assert tagless.total_bits < tagged.total_bits
        assert tagless.hrt_bits == tagged.hrt_bits

    def test_ihrt_costed_as_idealisation(self):
        cost = storage_cost("AT(IHRT(,12SR),PT(2^12,A2),)")
        assert cost.hrt_bits == 0 and cost.tag_bits == 0
        assert cost.pattern_bits == 2 * 4096

    def test_st_pattern_table_is_one_bit_per_entry(self):
        st_cost = storage_cost("ST(AHRT(512,12SR),PT(2^12,PB),Same)")
        at_cost = storage_cost("AT(AHRT(512,12SR),PT(2^12,A2),)")
        assert st_cost.pattern_bits == 4096
        assert st_cost.pattern_bits < at_cost.pattern_bits
        assert st_cost.hrt_bits == at_cost.hrt_bits  # "similar costs" (paper §5.2)

    def test_ls_has_no_pattern_table(self):
        cost = storage_cost("LS(AHRT(512,A2),,)")
        assert cost.pattern_bits == 0
        assert cost.hrt_bits == 512 * 2

    def test_last_time_is_one_bit(self):
        assert storage_cost("LS(HHRT(512,LT),,)").hrt_bits == 512

    def test_static_schemes_free(self):
        for spec in ("BTFN", "AlwaysTaken", "Profile"):
            assert storage_cost(spec).total_bits == 0

    def test_global_schemes(self):
        gag = storage_cost("GAg(12)")
        assert gag.hrt_bits == 12
        assert gag.pattern_bits == 2 * 4096
        assert storage_cost("gshare(12)").total_bits == gag.total_bits
        # Last-Time is one bit per pattern entry, as in AT's pattern table
        for spec in ("GAg(8,LT)", "gshare(8,LT)"):
            assert storage_cost(spec).pattern_bits == 256
        assert storage_cost("AT(IHRT(,8SR),PT(2^8,LT),)").pattern_bits == 256

    def test_perceptron(self):
        cost = storage_cost("perceptron(12,512)")
        assert cost.hrt_bits == 12  # one global history register
        assert cost.tag_bits == 0
        assert cost.pattern_bits == 512 * 13 * 8  # 8-bit weights incl. bias

    def test_tage(self):
        cost = storage_cost("tage(4,9)")
        entries = 4 * 512
        assert cost.hrt_bits == 32  # longest geometric history
        assert cost.tag_bits == entries * 8
        # base bimodal 2^(9+2) 2-bit counters + (ctr3 + u2 + valid) per entry
        assert cost.pattern_bits == 2 * 2048 + entries * 6

    def test_longer_history_doubles_pattern_storage(self):
        short = storage_cost("AT(AHRT(512,10SR),PT(2^10,A2),)")
        long = storage_cost("AT(AHRT(512,12SR),PT(2^12,A2),)")
        assert long.pattern_bits == 4 * short.pattern_bits

    def test_total_bytes(self):
        assert StorageCost(8, 0, 8).total_bytes == 2.0

    def test_accepts_parsed_spec(self):
        from repro.predictors.spec import parse_spec

        spec = parse_spec("LS(AHRT(512,A2),,)")
        assert storage_cost(spec).hrt_bits == 1024
