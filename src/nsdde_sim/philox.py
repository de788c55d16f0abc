"""numpy's per-path Philox normals, bitwise, without importing ``numpy.random``.

The draws of ``Generator(Philox(SeedSequence(entropy=seed, spawn_key=(i,))))``'s
``standard_normal`` are computed for all path indices ``i`` at once: SeedSequence's hash on
``uint32`` arrays, Philox4x64-10 (Salmon et al., SC 2011) on counters 1, 2, ... of each
path's key, and the ziggurat of numpy's ``random_standard_normal`` (Marsaglia & Tsang,
J. Stat. Softw. 5, 2000), whose slow cases (about 1.4 % of draws) run in Python through
``math.exp`` and ``math.log1p``, the libm calls of numpy's C code.

The strip tables are numpy's bytes; no float formula reproduces them.  ``_TABLES`` is the
base64 of the 6,144 bytes of ``fi_double``, ``wi_double`` and ``ki_double``, which lie back
to back in ``.rodata``, from its file offset plus the value of ``fi_double``::

    ar x numpy/random/lib/libnpyrandom.a src_distributions_distributions.c.o
    readelf -sW src_distributions_distributions.c.o | grep _double   # values: fi, wi, ki
    readelf -SW src_distributions_distributions.c.o | grep rodata    # file offset
"""

from __future__ import annotations

import binascii
import itertools
import math
from typing import Sequence

import numpy as np

from .errors import InvalidRange

M32 = 2**32 - 1
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
TAIL_R, TAIL_INV_R = 3.6541528853610088, 0.27366123732975828
CHUNK = 2**16  # raw outputs per block of paths, so that its arrays stay in cache

_TABLES = np.frombuffer(binascii.a2b_base64("""
AAAAAAAA8D+H8HnJakTvPxWpbFtUt+4/d/An4BE/7j+V3gSnb9PtP/K8VwaScO0/3BmheEkU7T/rLaeoM73sP394qc5eauw/
6rru2Rwb7D+C3OFO687rP1L1jzplhes/EN00gjo+6z+i6Gw/KvnqPwQlevH+teo/4clQ1Yt06j8Pr/X9qjTqP9gfZe479uk/
gQYkjSK56T/BemFXRn3pP0d6G8KRQuk/T3ExvfEI6T+oCuZPVdDoPwLfukitmOg/rLw3/Oth6D9uz1YPBSzoP8viIEvt9uc/
WGicd5rC5z/VsKA8A4/nP1bYcAcfXOc/Em0/9OUp5z/ueuq6UPjmP4laY55Yx+Y/KjtRXveW5j8j45IqJ2fmPxgMVZjiN+Y/
ZSaAmCQJ5j9q/0pv6NrlP4lcyKwpreU/j41MJuR/5T9Gno3wE1PlP9VsZVq1JuU/Z7Yg6MT65D/ATklPP8/kP3hS3HIhpOQ/
ElDfX2h55D95NklKEU/kP+NfNYoZJeQ/gltYmX774z+jMa8QPtLjPw7NYqZVqeM/1QDaK8OA4z/pUPWLhFjjPzU6cMmXMOM/
7zhk/foI4z/uO+pVrOHiP0qV1xSquuI/Fc2TjvKT4j/tBAUphG3iP4TbkFpdR+I/8vcvqXwh4j8glpKp4PvhP2mZVP6H1uE/
EdE/V3Gx4T9QPJtwm4zhP9o5hhIFaOE/nKleEK1D4T84HzFIkh/hPxNZMqKz++A/oEJBEBDY4D+u2XCNprTgP4FdmR12keA/
NjzwzH1u4D8uP6avvEvgPyqCi+ExKeA/xMq4hdwG4D+hvXuMd8nfP8oAqaedhd8/83ovyylC3z+Vj35xGv/eP1QfvSBuvN4/
xcNOaiN63j+Fm1/qODjePwk6dket9t0/sVYLMn+13T8z3iZkrXTdP4AQAqE2NN0/bVuutBn03D9IqMBzVbTcP8fXALvodNw/
uCwdb9I13D8XamF8EffbP5FtcdakuNs/GxMHeIt62z/KMbNixDzbP1KFoZ5O/9o/nlpfOinC2j+A2KRKU4XaP03AIOrLSNo/
PoRGOZIM2j/fkx5epdDZP8bAGIQEldk/k5/g265Z2T8XyzObox7ZPxXxufzh49g/iJHeP2mp2D+2WqyoOG/YP9kNqn9PNdg/
Edm4Ea371z+wFPSvUMLXP+tSkq85idc/7bHHaWdQ1z9MYak72RfXP6pMEoaO39Y/Id6IrYan1j/iyyUawW/WPxXlezc9ONY/
yNKAdPoA1j9EwnZD+MnVP77u1hk2k9U/AAE9cLNc1T/tO1PCbybVP5Jtv45q8NQ/opwQV6O61D/Uaq2fGYXUP/4kw+/MT9Q/
GXo10bwa1D/b0o7Q6OXTP65D8XxQsdM/eRMIaPN80z+e0fkl0UjTPy/2Wk3pFNM/Zgchdzvh0j/dP5Y+x63SPx6xTUGMetI/
id4XH4pH0j+ezPd5wBTSPxaBGPYu4tE/UPDCOdWv0T/oVFTtsn3RP2fuNLvHS9E/IyTPTxMa0T/ECYdZlejQP9pCsohNt9A/
NkOQjzuG0D/Z6UIiX1XQP350x/a3JNA/xZPfiYvozz81MriMEIjPP9KY6Wz+J88/RJzJpFTIzj/dPCiyEmnOP4RxRRY4Cs4/
CpDHVcSrzT9PUbL4tk3NP8xvXooP8Mw/U99xmc2SzD9Hndi38DXMP6EYvnp42cs/qjGHemR9yz860cxStCHLPwcYV6Jnxso/
fiYZC35ryj89fi0y9xDKP1r+0r/Stsk/J3xqXxBdyT9p+nS/rwPJP1uBkpGwqsg/OJqBihJSyD91cR9i1fnHPyOjaNP4occ/
prV6nHxKxz8WR5Z+YPPGP1zyIT6knMY/nPGtokdGxj/5g/h2SvDFP2wd84ismsU/NWjIqW1FxT/BH+OtjfDEPy3O9WwMnMQ/
1XUDwulHxD+uMWmLJfTDP+7X6Kq/oMM/iKu0BbhNwz9lKnyEDvvCPxoHehPDqMI/t16DotVWwj80PBglRgXCP0J9dZIUtME/
Yy2o5UBjwT+5bqIdyxLBP7oJUj2zwsA/hb+4S/lywD8qfQZUnSPAPywia8s+qb8/HA5SKf8Lvz9LpZrye2++P4/odmG1070/
5ZG9uas4vT8KdDtJX568PxUQC2jQBLw/M+LyeP9ruz8z9srp7NO6P4Zi6jOZPLo/GVud3ASmuT+roKR1MBC5P1Iov50ce7g/
1u8+Acrmtz92EapaOVO3P0xKaXNrwLY/GE2FJGEutj+kZnRXG521P64r+gabDLU/EyIbQOF8tD+GmiYj7+2zP3A+2eTFX7M/
ETGbz2bSsj+RDd1E00WyP32Jl74MurE/nRfy0BQvsT8llhUs7aSwP5fkMJ6XG7A/NW5sKywmrz+BUbJH1RauP2Lxrf4uCa0/
LCooDz79qz9wXziQB/OqP2NVKfmQ6qk/q7VoKuDjqD8eJ693+96nP2TQmLPp26Y/1K3yPLLapT9dJxEOXdukP8vumM7y3aM/
l/Q96Hzioj+8ah+fBemhPxGAli6Y8aA/xKUY14H4nz91jILbGhKePxoJzYMZMJw/+OsiTp9Smj8KwQC20XmYP4K/C/TapZY/
ZLD78urWlD8TXquNOA2TPxIwYDQDSZE/Sd1yTyoVjz+sj08njaSLP3ikjQ0EQYg/4M8aQpbrhD+SL5UpkqWBPzdo7Phg4Xw/
XbgM2aiedj/9sbADH4pwP2ewwUOfX2U/D/e5tgWmVD952RV4O0nPPMb2/eMLjYs8tFssPK9QkjxhO0Q4uXyVPAynL+j8AZg8
vNBMLgwjmjz3YTgvTQCcPHRydFovrJ08w9VMLUgynzytu44nMk2gPENdAjsF9aA8dzZBl6aSoTz1GnqPoieiPIDYYzgutaI8
9ZFXwD88ozwvsaLBnr2jPFWb/43vOaQ8p/49NruxpDx00xpidSWlPJbOB6eAlaU86n7ZzzECpjw9fKNh0mumPHAFAJKi0qY8
pvhG09o2pzx3KrMQrZinPEP1Rq1F+Kc8dwpDU8xVqDyadnueZLGoPJjPTqkuC6k86h4sgkdjqTxGxTiOybmpPCynpNzMDqo8
Wc13bWdiqjwwFhBurbSqPJxsE22xBas8KXpCh4RVqzw6n1KONqSrPDKCvyrW8as8805Z+XA+rDxhOzKlE4qsPIsmcv7J1Kw8
SLeADp8erTwQH+QpnWetPMO4IwDOr608U3bxqTr3rTz+7dK16z2uPABvejPpg648zoL5vTrJrjwmYvCE5w2vPIj22FT2Ua88
rteHnm2VrzysLvp9U9ivPOw0QuBWDbA8mo859UAusDz8pRae6k6wPBCgcltWb7A8C/RxkIaPsDwTYbyEfa+wPH/MS2Y9z7A8
awgWS8jusDzuFZUyIA6xPL4PMQdHLbE8QZGOnz5MsTweIMS/CGuxPDTaeBqnibE8iG3uURuosTzLKvj4ZsaxPC7U4JOL5LE8
n6BAmYoCsjzpxsRyZSCyPB/D6X0dPrI8+2upDLRbsjx/0x1mKnmyPBvXGceBlrI82i64YruzsjxTuOFi2NCyPI6py+jZ7bI8
10huDcEKszwwufThjiezPKFeJnBERLM81VLKuuJgszxqWAW+an2zPGSysm/dmbM8Az24vzu2szzgHVaYhtKzPINact6+7rM8
dJ7gceUKtDxddKYt+ya0PKQwPOgAQ7Q8XcfKc/detDw2w2ae33q0PC+PSDK6lrQ8XUEC9oeytDzcEbOsSc60PAWmOBYA6rQ8
YlVe76sFtTxaiwryTSG1PE9matXmPLU8yLIbTndYtTx4X1UOAHS1PBSFDsaBj7U8WRskI/2qtTw9c33Rcsa1PNOML3vj4bU8
OF6fyE/9tTzDH6NguBi2PKKwougdNLY8Cya3BIFPtjxylslX4mq2PDcxsYNChrY8sbJQKaKhtjy7Q7PoAb22PFLTKGFi2LY8
VPhhMcTztjzraIv3Jw+3PMYUaVGOKrc83O5w3PdFtzwfc+U1ZWG3PEn07/rWfLc8k726yE2YtzwJFIs8yrO3PPsi2/NMz7c8
595zjNbqtzwf6oakZwa4PHaGyNoAIrg8FZ+JzqI9uDy99dEfTlm4PMV+em8Ddbg8LfdHX8OQuDxDwAWSjqy4PJwMoatlyLg8
J2pEUUnkuDyPtXMpOgC5PEeDKNw4HLk8/ArvEkY4uTyKogN5YlS5PO7VcLuOcLk8MSouicuMuTy/mT+TGam5PCzZ1Yx5xbk8
EXRvK+zhuTxK0vomcv65PJI2+TkMG7o8W8iiIbs3ujyIuwuef1S6PKSpSnJacbo8PTGgZEyOujwI8Z8+Vqu6PM71Ws14yLo8
NrOL4bTlujwaocNPCwO7PFuYmvB8ILs8AAzgoAo+uzwDPc5BtVu7PCeJP7l9ebs8PPfl8WSXuzxuJYXba7W7PKLALmuT07s8
g66Bm9zxuzygFuxsSBC8PC168OXXLrw8HA1uE4xNvDwFh+wIZmy8PBem6+Bmi7w8q6I2vY+qvDyQ1jvH4cm8PDfgaDBe6bw8
bo+LMgYJvTwg7zcQ2yi9PEfGMxXeSL08I/HnlhBpvTyl+9f0c4m9PHBuIJkJqr08Dkn8+NLKvTw3LlKV0eu9PBzSSfsGDb48
9kbqxHQuvjyI0cGZHFC+PCX+ly8Acr48Cr8qSyGUvjwIb/fAgba+PDqnEHYj2b48qewBYQj8vjwhU8KKMh+/PG1Ntw+kQr88
aAHJIF9mvzyCl4kEZoq/PL8icRi7rr88hecv0mDTvzwL9hjBWfi/PHWg00fUDsA8R8mPAqghwDyrAqmDqTTAPMf1Pk7aR8A8
frOt9jtbwDxoJqcj0G7APBcuY4+YgsA8VKLoCJeWwDzEwHF1zarAPEjU7tE9v8A8MD2qNOrTwDyTZRHP1OjAPLafpu///cA8
QXAgBG4TwTw1XbubISnBPG0JxGkdP8E8Oy5gSGRVwTzz7p07+WvBPGES0nTfgsE8rOtOVhqawTyOL393rbHBPJSmcamcycE8
Oa7k++vhwTwB2eLCn/rBPIHMBJ28E8I87tNvekctwjwknKykRUfCPOBYdse8YcI8Llmo+rJ8wjx4DnfNLpjCPFIKKlM3tMI8
l9uWMdTQwjz1eKmxDe7CPO6uVtLsC8M8o6RoXnsqwzyjEq4FxEnDPECoM3rSacM8CkFWkrOKwzz6iK5wdazDPKYEF7Mnz8M8
dfRgqtvywzza5bmcpBfEPJReVBWYPcQ8FTqnRM5kxDy8Q5x1Yo3EPCdaa51zt8Q8AonNDSXjxDxBrOlTnxDFPEJ+OlIRQMU8
G+RKqbFxxTzZjXGLwKXFPP7QOiSK3MU8TB6Gz2kWxjzqagB7zlPGPMPln75AlcY8MuIJjWvbxjw0el/wKCfHPHMGCVaVecc8
jM7W9C3Uxzw08ikFAznIPBR8qr8Pq8g8lkRvlOAuyTyrV0AB7svJPFp3lHjcj8o8sf14OB+YyzwzrQmCtDvNPGrvJYA98w4A
AAAAAAAAAACoxvuYvggMAEKBvfpUow0A6u7BfvZRDgB+99PpVbIOALnKfoFL7w4AqkT6CkcZDwAYy/9h7TcPAFwlYZVGTw8A
lqMb5KVhDwCkllN1enAPAJpEKOyyfA8A01djDPGGDwDeJYNXpo8PANrQTccklw8ACfXbB6mdDwB0+oH1YKMPAPhLW95vqA8A
3FTTYPGsDwAPuRhn+7APAMZ0U42ftA8Ad/5mI+y3DwAO5aHp7LoPAO0LBJ2rvQ8AV2z/YDDADwBIojcQgsIPANFb4nqmxA8A
Me56l6LGDwCkliipesgPAIXeS14yyg8AGiMC6czLDwDEOfgSTc0PAJnsj021zg8AMMkdvwfQDwDmxNZNRtEPAFD04qhy0g8A
HsnwT47TDwB4tJCZmtQPAFMPkriY1Q8A7JmOwInWDwAy6MipbtcPAOgIe1RI2A8AjCytixfZDwDSracH3dkPAIxeEHCZ2g8A
IC7AXU3bDwDQ/Ftc+dsPAH2aueud3A8AnXIYgTvdDwCQLzSI0t0PAGSfNmRj3g8ATlGNcO7eDwAutKYBdN8PAEDtmWX03w8A
8iS85G/gDwBYoiXC5uAPAEy4KDxZ4Q8AmT+8jMfhDwCqHNvpMeIPAJEb2oWY4g8AhkG1j/viDwBKjVUzW+MPACoA0Jm34w8A
f62e6RDkDwA0d9RGZ+QPAFwJTNO65A8AJJXSrgvlDwB4vE73WeUPABIS5Mil5Q8AiYYTPu/lDwB4ENlvNuYPAHjVxnV75g8A
qhEeZr7mDwDy9OVV/+YPAAKnAFk+5w8AOZ4+gnvnDwCicHDjtucPAENCd43w5w8AjPBTkCjoDwA6FzX7XugPAGQIhNyT6A8A
vM7wQcfoDwD2Tn04+egPAB2bh8wp6Q8A6ojTCVnpDwCimpP7hukPAGZIcayz6Q8A1baUJt/pDwB85qtzCeoPAKRm8Zwy6g8A
LJUyq1rqDwAadNWmgeoPAPAc3pen6g8AINnzhczqDwA85mV48OoPABPsL3YT6w8ASir+hTXrDwC0YjGuVusPAPqE4vR26w8A
FCDmX5brDwB8nc/0tOsPANBJ9LjS6w8APi5use/rDwDovR7jC+wPABVasVIn7A8A06+dBELsDwCW8Sn9W+wPAPTubEB17A8A
tAxQ0o3sDwASH5G2pewPAP4nxPC87A8AFftUhNPsDwCzyIh06ewPALeRf8T+7A8AKIU1dxPtDwADSYSPJ+0PAEwvJBA77Q8A
blit+03tDwDdw5hUYO0PAOhPQR1y7Q8AgqnkV4PtDwDILKQGlO0PAAS3hSuk7Q8AtGp0yLPtDwBSZkHfwu0PAFJupHHR7Q8A
04o8gd/tDwCAmZAP7e0PABTUDx767Q8AxEsSrgbuDwAGWtnAEu4PAOAGkFce7g8AJGVLcynuDwC85AoVNO4PADybuD0+7g8A
9IIp7kfuDwCGsB0nUe4PAEF/QOlZ7g8ALrQoNWLuDwDxl1gLau4PAHoHPmxx7g8AgnsyWHjuDwC6BnvPfu4PALJKSNKE7g8A
Q2O2YIruDwBRyMx6j+4PANolfiCU7g8A6imoUZjuDwBcSBMOnO4PAPRzclWf7g8ArsxiJ6LuDwCsQmuDpO4PAHEt/Gim7g8A
+tZu16fuDwAK+gTOqO4PADsz6Eup7g8AEGQpUKnuDwBeB8DZqO4PAFR2ieen7g8AJB1IeKbuDwCDnqKKpO4PANrkIh2i7g8A
JCA1Lp/uDwAurya8m+4PAOTyJMWX7g8AOgo8R5PuDwAWdVVAju4PAHqcNq6I7g8A/T1/joLuDwCIuKfee+4PAP83/5t07g8A
Xr2pw2zuDwB+AJ5SZO4PAIgoo0Vb7g8AtldOmVHuDwDPBgBKR+4PAFAs4VM87g8A2CrgsjDuDwAFgq1iJO4PAFo8uF4X7g8A
RxQqognuDwDMSeMn++0PAGwhdurr7Q8AfgQi5NvtDwDTOc4Oy+0PAPQsBGS57Q8AyTjp3KbtDwCN6Tdyk+0PADaoOBx/7Q8A
K8C50mntDwAArgaNU+0PACKk3kE87Q8A2C9q5yPtDwBE5i9zCu0PADT+B9rv7A8AuLcOENTsDwC0bpUIt+wPAMEwEraY7A8A
eKkNCnnsDwD+MQ/1V+wPAGLJhmY17A8ANbO0TBHsDwDQb46U6+sPAJK2oCnE6w8A3Azu9ZrrDwBChcnhb+sPAJ4frdNC6w8A
Sy0LsBPrDwDpAhpZ4uoPAFcima6u6g8AJuOOjXjqDwDlc/3PP+oPAPbZjUwE6g8AO1Yv1sXpDwCkR6k7hOkPAChHHUc/6Q8A
1sV2vfboDwDm6MRdqugPAOqxeuBZ6A8AQKmQ9gToDwDAM4JIq+cPAKVqH3VM5w8AAqIqEOjmDwDYq7agfeYPAH4wOJ8M5g8A
Qvc4c5TlDwCAcpdwFOUPAFj0NtSL5A8ANx79v/njDwCcse41XeMPAP7kLxK14g8AV1WZAwDiDwAUg3iCPOEPALBn7sRo4A8A
qnErsILfDwCq/n7Fh94PAP07xgl13Q8AE78p5UbcDwCCAi74+NoPAHW6suGF2Q8ABM9I7+bXDwALZb2tE9YPABLw4kkB1A8A
rMe0p6HRDwCeH3YE4s4PALIRXtioyw8AIi3NbtLHDwDtIh4vK8MPADq4wIFlvQ8ANFQAxAa2DwB0KCpYQKwPAJhFAR6Xng8A
/B2kSPqJDwAsMPD3xWYPAEocM0taGg8A
"""), dtype="<u8")
FI, WI, KI = _TABLES[:256].view("<f8"), _TABLES[256:512].view("<f8"), _TABLES[512:]
SIGNED_WI, SIGNED_KI = np.concatenate([WI, -WI]), np.concatenate([KI, KI])  # by strip and sign


def non_negative(value, name: str) -> int:
    """``value`` as an int; :class:`InvalidRange` unless it is a non-negative Python or
    numpy integer."""
    if not isinstance(value, (int, np.integer)) or value < 0:
        raise InvalidRange(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def _hashed(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of ``values`` by its consecutive hash constants:
    the value xor-ed with one, times the next, its high half xor-ed into its low one."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ values >> 16


def _mixed(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words ``x`` with hashed words ``y``."""
    value = MIX_MULT_L * x - MIX_MULT_R * y
    return value ^ value >> 16


def _consts(init: int, mult: int, calls: int) -> np.ndarray:
    """The hash constant before each of ``calls`` hash calls and after the last, as a column."""
    out = list(itertools.accumulate(range(calls), lambda h, _: h * mult & M32, initial=init))
    return np.array(out, dtype=np.uint32)[:, None]


def seed_state(seed: int, spawn: Sequence[int] | None, words: int) -> np.ndarray:
    """``SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(words, uint32)`` per
    ``k`` of ``spawn`` (one row of ``SeedSequence(seed)`` if None), ``(rows, words)``, in
    ``uint32`` arithmetic, which wraps as numpy's C code does.  The hash constants advance
    per call, not with the data, so the rows share them, and a row's pool stops changing
    where its key's words end."""
    entropy = [seed >> s & M32 for s in range(0, seed.bit_length() or 1, 32)]
    columns = np.array(entropy + [0] * (4 - len(entropy)), dtype=np.uint32)[:, None]
    total = len(columns)
    if spawn is not None:
        width = -(-max(max(spawn).bit_length(), 1) // 32)
        shifted = np.array(spawn, dtype=object)[None, :] >> np.arange(0, 32 * width, 32)[:, None]
        total += 1 + (shifted[1:] != 0).sum(axis=0)  # the words of each key
        columns = np.concatenate([columns.repeat(len(spawn), axis=1),
                                  (shifted & M32).astype(np.uint32)])
    consts = _consts(INIT_A, MULT_A, 4 + 12 + 4 * (len(columns) - 4))
    pool = _hashed(columns[:4], consts[:5])
    for src in range(4):  # each word into every other one, the three at once
        dst, k = [d for d in range(4) if d != src], 4 + 3 * src
        pool[dst] = _mixed(pool[dst], _hashed(pool[src], consts[k : k + 4]))
    for j in range(4, len(columns)):
        k = 16 + 4 * (j - 4)
        pool = np.where(j < total, _mixed(pool, _hashed(columns[j], consts[k : k + 5])), pool)
    return _hashed(pool[np.arange(words) % 4], _consts(INIT_B, MULT_B, words)).T


def mulhilo(a: np.ndarray, m):
    """(hi, lo) of the 128-bit products of the ``uint64`` array ``a`` and ``m``, an int or
    a ``uint64`` array that broadcasts; the high half is built from 32-bit limbs."""
    a0, a1, m0, m1 = a & M32, a >> 32, m & M32, m >> 32
    mid = a0 * m0 >> 32
    mid += a1 * m0  # in place from here on: the products have the broadcast shape
    hi = a1 * m1
    hi += mid >> 32
    mid &= M32
    mid += a0 * m1
    mid >>= 32
    hi += mid  # a1 * m1 + (mid >> 32) + (a0 * m1 + (mid & M32) >> 32)
    return hi, a * m


def _philox(keys: np.ndarray, blocks: int) -> np.ndarray:
    """The first ``4 * blocks`` outputs of Philox4x64-10 under each of the ``(rows, 2)``
    keys, shape ``(rows, 4 * blocks)``."""
    k0, k1, zero = keys[:, :1], keys[:, 1:], np.zeros(1, dtype=np.uint64)
    v = [np.arange(1, blocks + 1, dtype=np.uint64), zero, zero, zero]
    for r in range(10):
        if r:
            k0, k1 = k0 + PHILOX_BUMP[0], k1 + PHILOX_BUMP[1]
        hi0, lo0 = mulhilo(v[0], PHILOX_M[0])
        hi1, lo1 = mulhilo(v[2], PHILOX_M[1])
        v = [hi1 ^ v[1] ^ k0, lo1, hi0 ^ v[3] ^ k1, lo0]  # all (rows, blocks) from round 3
    return np.stack(v, axis=-1).reshape(len(keys), -1)


def _tail(row: np.ndarray, pos: int):
    """The magnitude beyond TAIL_R that the uniform pairs of ``row`` from ``pos`` on give,
    and the position after the accepting pair; None if the row runs out first."""
    while pos + 2 <= len(row):
        u, v = (row[pos : pos + 2] >> 11).tolist()
        xx = -TAIL_INV_R * math.log1p(-u * 2.0**-53)
        yy = -math.log1p(-v * 2.0**-53)
        pos += 2
        if yy + yy > xx * xx:
            return TAIL_R + xx, pos
    return None


def _ziggurat(raw: np.ndarray, count: int):
    """The first ``count`` normals from each row of raw outputs; None if a row runs out.

    An output's low byte picks the strip, bit 8 the sign, bits 9..60 the magnitude.
    An output is an attempt unless an earlier wedge or tail test read it."""
    signed = raw.view(np.uint16)[:, ::4] & 0x1FF  # strip and sign (little-endian words)
    rabs = raw >> 9 & (2**52 - 1)
    x = rabs * SIGNED_WI[signed]
    keep = rabs < SIGNED_KI[signed]
    rows, cols = np.nonzero(~keep)
    width = raw.shape[1]
    strip, xs = (signed[rows, cols] & 0xFF).astype(np.intp), x[rows, cols]
    u = (raw[rows, np.minimum(cols + 1, width - 1)] >> 11) * 2.0**-53  # last: cut below
    wedge = (FI[strip - 1] - FI[strip]) * u + FI[strip]
    accept = wedge < np.array([math.exp(v) for v in ((-0.5 * xs) * xs).tolist()])
    taken, used = [], []
    row_at, free = -1, 0  # the first output of the row that no test has read
    for r, c, s, ok in zip(rows.tolist(), cols.tolist(), strip.tolist(), accept.tolist()):
        if r != row_at:
            row_at, free = r, 0
        if c < free:
            continue
        tail, end = None, c + 2
        if not s:
            tail = _tail(raw[r], c + 1)
            end = tail[1] if tail else width + 1
        if end > width:  # the row runs out inside this attempt
            keep[r, c:], free = False, width
            continue
        if tail:
            x[r, c] = -tail[0] if int(rabs[r, c]) >> 8 & 1 else tail[0]
        if tail or ok:
            taken.append(r * width + c)
        used.extend(range(r * width + c + 1, r * width + end))
        free = end
    keep.flat[used] = False
    keep.flat[taken] = True
    kept = keep.sum(axis=1)
    if (kept < count).any():
        return None
    starts = np.cumsum(kept) - kept
    return x[keep][starts[:, None] + np.arange(count)]


def standard_normal(seed: int, paths: Sequence[int], count: int) -> np.ndarray:
    """The first ``count`` draws of ``Generator(Philox(SeedSequence(entropy=seed,
    spawn_key=(i,)))).standard_normal`` for each ``i`` of ``paths``, ``(len(paths), count)``."""
    state = seed_state(seed, paths, 4).astype(np.uint64)
    keys = state[:, 0::2] | state[:, 1::2] << 32
    blocks = -(-(count + count // 32 + 32) // 4)  # counters per path, rarely too few
    step = max(1, CHUNK // (4 * blocks))
    out = np.empty((len(paths), count))
    for start in range(0, len(paths), step):
        more = blocks
        while (draws := _ziggurat(_philox(keys[start : start + step], more), count)) is None:
            more *= 2
        out[start : start + step] = draws
    return out
