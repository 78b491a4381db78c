import pytest

from crexlab import BiasConvention, EstimatorKind, PsiFamily, SpecParseError
from crexlab.errors import enum_member

ENUMS = [
    pytest.param(EstimatorKind, "estimator", id="estimator"),
    pytest.param(PsiFamily, "psi family", id="psi-family"),
    pytest.param(BiasConvention, "bias convention", id="bias-convention"),
]


class TestEnumMember:
    @pytest.mark.parametrize("kind, what", ENUMS)
    def test_value_or_member_gives_the_member(self, kind, what):
        for member in kind:
            assert enum_member(kind, member.value, what) is member
            assert enum_member(kind, member, what) is member

    @pytest.mark.parametrize(
        "kind, what, message",
        [
            (EstimatorKind, "estimator",
             "unknown estimator 'bogus' (known: vn, rn, rmn, lstat, lstat_adj)"),
            (PsiFamily, "psi family", "unknown psi family 'bogus' (known: exp, unif, beta)"),
            (BiasConvention, "bias convention",
             "unknown bias convention 'bogus' "
             "(known: truth-minus-estimate, estimate-minus-truth)"),
        ],
        ids=["estimator", "psi-family", "bias-convention"],
    )
    def test_unknown_value_message(self, kind, what, message):
        with pytest.raises(SpecParseError) as info:
            enum_member(kind, "bogus", what)
        assert str(info.value) == message
        # the enum's own ValueError is not chained onto the message
        assert info.value.__suppress_context__

    @pytest.mark.parametrize("kind, what", ENUMS)
    @pytest.mark.parametrize("bad", [5, None, ["exp"], "EXP"], ids=repr)
    def test_non_member_values_raise_spec_parse_error(self, kind, what, bad):
        with pytest.raises(SpecParseError, match=f"unknown {what} "):
            enum_member(kind, bad, what)
