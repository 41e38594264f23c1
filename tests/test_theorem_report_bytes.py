"""Pinned ``run-theorem`` outputs: every theorem on every catalog entry.

Each (sampler, theorem, entry) triple has one SHA-256 over the canonical
``json_bytes()`` of its report followed by its ``to_text()``, under an
exhaustive sampler and under ``Sampler.random(seed=3, count=20)``.  A
theorem that refuses an entry is pinned by the error's class and message
instead.  A change to how a theorem report is assembled must leave every
output unchanged.  Running this file as a script prints the outputs of
the current code.
"""

import hashlib
import json

import pytest

from linrel.errors import StructureError
from linrel.report import Sampler
from linrel.verify import THEOREMS, catalog, run_theorem

SAMPLERS = {
    "exhaustive": Sampler.exhaustive(),
    "random": Sampler.random(seed=3, count=20),
}

EXPECTED = {
    "exhaustive": {
        "ldq": {
            "bool":
                "ee7c008ea08ddfc4cce100c75ba462ba90337aede10c2d1e6c6b16de89212793",
            "bool-broken":
                "fa466f7739a3e7ff55bcc11ad9fec04ad794a3dbc07de1e0d4364bd8cbf861cd",
            "chain3":
                "558fab8ef410f275445aad302672be7a7a2b609b4c9028c95fb65ce6f11004eb",
            "chain3-broken":
                "92abe468390366ea3bc50911f99006c1ba761ba25ba7da0bec32d0a7a555789d",
            "diamond":
                "91b110fc46f479237c4c2986d703c33a11f67177e417a467ca39438631d04355",
            "diamond-broken":
                "9c4253d8be01c3787a7cb0ab570842563bde42c6c0a188d1826187672be4b407",
            "point":
                "11e887ab6768207661b1240c415b4bd4e1226c835c70df23659c4470113c08a4",
            "z2shift":
                "daeaa65686194ac59cf0b332c21dc79a801f8649d9be42144a80dc65bb5e5103",
            "z2shift-broken":
                "0dfe92d496673bda75e147884e557d6152b591cb18dbc9463c564284a81c80e6",
            "z3shift":
                "5aee309b47e5ce3289673e5319614a561dc6300a77e5f33f15cad2e64ce66b89",
            "z3shift-broken":
                "83de6eb76529b3cc8c11bbf11a87153ed79da515b36962782a25b12c91f4c806",
            "zinf-arctic":
                "1bb23edc716ac9ab13ec557cb60a7b0f11fa8f598cbdaa3d93a3545d0791e76c",
            "zinf-broken":
                "dcfa2e79c54755dfaea49e38e90108c99e83fce739261aa61462c54b9efaa24b",
            "zinf-tropical":
                "6fd803b0435628c1996769f06e6fff0b47db406947e697496633528449a37747",
        },
        "girard-qrel": {
            "bool":
                "73f71299aa97b4092a75300659e54e06039bcdfff057bb021b748dea79f0bbf3",
            "bool-broken":
                "1c8cbdfb8ebc62f5a7fc0c1bee0f124ad9983a5ad1c667c847a2922c700c0acc",
            "chain3":
                "7ac40305672019a0355983136553eb4e73eaad96cd334c2d0728b14b253cd476",
            "chain3-broken":
                "c27cfd50cf12bc02119160c4556dfc964bf611795b5fba3c88adbf70e3d6630c",
            "diamond":
                "c7216b50dbe2b3c4ef4dac972e6793845af250f68b8f256ae93be20068e6003c",
            "diamond-broken":
                "b2228e2a3b7aa986cefd7183b7f9b65b46fe44d4ac567853c01fc19f8ea13641",
            "point":
                "4ea6dd88b80e6a6b816b09367524aaaed3b72f74b100a77eba2836f4c73cf8c5",
            "z2shift":
                "94a9aac9042aa4bc07334b990deaa2287a74d83e2b70cbaa1e4751c31581c704",
            "z2shift-broken":
                "52be67cbb4e870c56bf9b1160565f343a5b1fcffb6335c10f26157ac95268f87",
            "z3shift":
                "cf7e02a19d221ab27c63f3009ec2544a668d747af3adbfeacf6497f4e3d32aa5",
            "z3shift-broken":
                "d9b4acb78592af5c5e8f5e75a707a3fae6c9e563db8db07aaa3979d325c094ba",
            "zinf-arctic":
                "43a52803f9ef88c7577f327a0efdee1b84b2922e6c1fb7c0a12558a8957d9eb6",
            "zinf-broken":
                "d38be514965090920cbde7e219cc966d97c52f2ec8da7011f871115cdfa81159",
            "zinf-tropical":
                "c06ec1f2e73902e15272584625bac89908ae9d0f8283c3525023bf89bcf34bf1",
        },
        "girard-qmod": {
            "bool":
                "9971352d09aa259d6cbd4690bbd6d1a2636349b86c484d5389201a00db62e3a3",
            "bool-broken":
                "e7e84589e5fee4388b7566d023ad248fb4455099b38bdebd1d9a19be1cdd3ee3",
            "chain3":
                "e8a46ceb68b84b2dca5861a5fd541b58c475bc5bae5aa45d4c38b9c5885cde46",
            "chain3-broken":
                "f6894d0d032ac542164ad749486cc082247bbaebecaff7f7fe0034dab219dab0",
            "diamond":
                "4cc82ffe28aa9d9130b16d722f4aa7f90a1fd4627a33801232b5ef093617f711",
            "diamond-broken":
                "373f4c44c2e66bd67013815652529150ae5e156a47d12969b9c135b13023060c",
            "point":
                "ef65476f423bea152d82bc2692fbd026782f9a9b1cb15129f22771319bc3056e",
            "z2shift":
                "ace90b6895dce1b085cd7f59c83cdeced97a094a22af3a3eb3cc061fbd6f3922",
            "z2shift-broken":
                "a08b652379b310fbbac2d0ff10cf101cf0bacce8387aa55f207b9b79e62662c5",
            "z3shift":
                "e1dce55bbbf13d3dd3a4e1449e0126f8dcc3e7fe5ca8948b4f2f6e1a00f522cf",
            "z3shift-broken":
                "ea75ffd6d49884ab8ef932581c9d546d506b622ecfb30a82cad36bd295933e42",
            "zinf-arctic":
                "MismatchError: theorem needs a finite base; 'zinf-arctic' is not",
            "zinf-broken":
                "MismatchError: theorem needs a finite base; 'zinf-broken' is not",
            "zinf-tropical":
                "MismatchError: theorem needs a finite base; 'zinf-tropical' is not",
        },
        "girard-monq": {
            "bool":
                "ae93add4ab9ea8f5920af5dc0a38ec26c6c9fcbd4146eed1b71f195544cc1010",
            "bool-broken":
                "eab470516e03f1d883ee5303a865f46e330583aa60cbf588746d5e6e00ebb4af",
            "chain3":
                "484c63f0740344ed0d202f9050cdb3f29b8c581e77cf48aed70ff89c2a70b34b",
            "chain3-broken":
                "50d34aa5d5b37a4e9e97cb3457cce8391f00b92703cd0bb3202267f26fc0f7e4",
            "diamond":
                "0e803225c7d1ee46ebf422e11bb3e6cf47087b4aec57b28afd8710d0addc2921",
            "diamond-broken":
                "4f7138d5c07a820c0a6f58a8378ee961181835fd0c850395f98da03983727495",
            "point":
                "d9088bf28b710ec53c63b3398c2ad7473e91742e8598c672baaa8b68717e0b66",
            "z2shift":
                "f7ff58cff32f8cef16b07692acc4fb3c0a13822f8a948a3d6f7cca902671620e",
            "z2shift-broken":
                "42c46cb77ebce5e60dd479890272459072c51c7bb374ef8ae8c1830546cfaa34",
            "z3shift":
                "ce8a5b0c86a6883e1f839a02b5dcca29c2944826285441af55d07588e59a9b8d",
            "z3shift-broken":
                "1af66a062c355e3d9f8ad655d95df8d61b6f645582ae0164f68005f2ddb3b6b2",
            "zinf-arctic":
                "MismatchError: theorem needs a finite base; 'zinf-arctic' is not",
            "zinf-broken":
                "MismatchError: theorem needs a finite base; 'zinf-broken' is not",
            "zinf-tropical":
                "MismatchError: theorem needs a finite base; 'zinf-tropical' is not",
        },
        "linear-monq": {
            "bool":
                "4c1832c6eae84b4d71aeb47ebadc5b98c0d6f76d309b971ef28d12938c98a10a",
            "bool-broken":
                "c547db36b0741461a1e4491f778734902111abd11edfea5f08a8d13175dd41b5",
            "chain3":
                "9f60c2d99e2f3ee5a711345a84a5e088954bb6a754b1adab58f5b14ca06a9238",
            "chain3-broken":
                "789ae804ae7277d146e5b14356d6a496ddb21d7c953e2e1539bfd835dd195470",
            "diamond":
                "f8d9eb91396845e86b3f8f16d6a435ac12df39f566c514c90900f809a18488b0",
            "diamond-broken":
                "bf33adf065958ab30e3dc58293f076b89bc180cb6bd320d8b76d1f53d986c89d",
            "point":
                "c9c127d727dba76eed385bf7ede0ab105138850b97d7d7b3d000ccd102fd3ef3",
            "z2shift":
                "2dc7756b6044e38634f9da0f5dbb85132ea2b4607bdfcf10a4dd277cc4734c85",
            "z2shift-broken":
                "3d26fbfe77ef4631d5441f0ffa6656e92ffcb9b4d775a0b7bc272d12372e7603",
            "z3shift":
                "9491647470005e8181f632bf5d365d074ce8673aec06d731f9af651a1b902712",
            "z3shift-broken":
                "726af6fb0ac02124b11d412fa20fe2a2eddfa206f38a79f5f55d00994108036a",
            "zinf-arctic":
                "MismatchError: theorem needs a finite base; 'zinf-arctic' is not",
            "zinf-broken":
                "MismatchError: theorem needs a finite base; 'zinf-broken' is not",
            "zinf-tropical":
                "MismatchError: theorem needs a finite base; 'zinf-tropical' is not",
        },
        "linear-qmod": {
            "bool":
                "9aed40208a11bba5583da6551c53ba8679edd4c675d504c74663ec97c6cc1c3e",
            "bool-broken":
                "889b70c2b5dc257dd628eeaa2de8c66fc53a01b8e8edc67f01ef3fac753df4c9",
            "chain3":
                "50d38a852f8c25f1c2e3f24bd788b35ab40e7507e8b2f88f1a96928c35aca1e8",
            "chain3-broken":
                "abb0f5d4db25d7a3fccf1e62fd9bb39b6c3eb3f70ba3c163ecf741adde5ccea4",
            "diamond":
                "95c75a6456898599d993fd5e061a844eeaa765b37310c98854766fa62abab01c",
            "diamond-broken":
                "38f404c6d355959ca539db6efb65ac9ba418ddf1cdff2faddd6363da4e899c2f",
            "point":
                "125b34292e3e7cd960f673e7af3d75291ff83196a4891f0bc0704c30a4625f74",
            "z2shift":
                "5ccb710ed93c59f43f3cf23fb344d4aeba3a85390f4ab60ee5d67d1a27523877",
            "z2shift-broken":
                "60640ee63cbdfd2e8f48fe04cc419594d987e010e9f232b5e07ba809a33a0540",
            "z3shift":
                "77d350aa053f445b34f5aa5597ce74a03abcf26bb93514f865c8c77574a8e4b1",
            "z3shift-broken":
                "03b0c7ae72b3ead6152a29c57bb5f61aa1846684a6c2819a3f9b3694bd8c7a7f",
            "zinf-arctic":
                "MismatchError: theorem needs a finite base; 'zinf-arctic' is not",
            "zinf-broken":
                "MismatchError: theorem needs a finite base; 'zinf-broken' is not",
            "zinf-tropical":
                "MismatchError: theorem needs a finite base; 'zinf-tropical' is not",
        },
        "qrel-closed": {
            "bool":
                "8c1de2f40510da22aeece3a01e40020c46c62750af9fe70d951051e21ae3334a",
            "bool-broken":
                "cc7d4e4c75b4bc115118c6805e86fb4afa8b00d4e05047582d5d3e3c59f7ae1c",
            "chain3":
                "d29e7cf72f5ea49745c84cb65e9f8ec6eda8f89a3ef9653b7decaf66c7ff5f79",
            "chain3-broken":
                "431e1758312289c7ff0e9f1404eb0a38e13ca5f62620b8417ba978dda8cb37a4",
            "diamond":
                "848e546573fc23521081e404476fbcd7bdd0c23172f0d319f373c303a070d51d",
            "diamond-broken":
                "32ee512c2577d554bd7143459394a7bd19034b538f740c6859a34b610746f302",
            "point":
                "324c7194ca5f2ad7f346415609b56855a674af815691ff75a2d830fc20cf341b",
            "z2shift":
                "eb62dbc2157240166544e0404c7cf2b17fbd0135d05911828da0ceca955ca321",
            "z2shift-broken":
                "97b9a56f12dad09e13a8b709cecf15bf2a8e615620f555a87ae5bae43f22b7ba",
            "z3shift":
                "2dfcf19f0dcce46bff303772ee830bdc5e3d34caa8da6998e9dd813df256414d",
            "z3shift-broken":
                "74297e534dfb93b98e7e33fbcbebbbb85709f63b0cd57392675c834d4b8c4519",
            "zinf-arctic":
                "a7cae0a873a348c1ea9f6d483fdc1cab43977d1cc163fa5e88d671801ee92338",
            "zinf-broken":
                "d465fcc39010ce2b82e84e4cb0c2f31314cbbba71f3731cabd425f2f97e295a4",
            "zinf-tropical":
                "5fa0cccb3b195c060783906d4b8945ea2dbb7bd515583bb9469492545fc0e671",
        },
        "qmod-closed": {
            "bool":
                "be0f3255550f4bea2e3f9ef3562c1971aa4c16142124c3ecd1d145da38d789eb",
            "bool-broken":
                "NotGirardError: 'bool-broken' has no Girard structure",
            "chain3":
                "NotGirardError: 'chain3' has no Girard structure",
            "chain3-broken":
                "NotGirardError: 'chain3-broken' has no Girard structure",
            "diamond":
                "063e8ac0d93178a7a3dd1c3a2ab672895274fffcf0f703b04cf6fb4955a8b840",
            "diamond-broken":
                "NotGirardError: 'diamond-broken' has no Girard structure",
            "point":
                "bc86d932e715861e1d59d9866cddbe856a21daa56a62587293efb4ccc2f41f84",
            "z2shift":
                "1c6d95e646cd4e66bab3ffffdfb7edce34873f58f0587236474c8a781f0cb79e",
            "z2shift-broken":
                "33ddbfa7a84f4bc93a89b07750a6106b7e2238d840d0ac7501a1aa40680d7338",
            "z3shift":
                "1685a376252f0476caae80702b17bdee0e81b59ac2ffdbd032a14f9e5b43d8ea",
            "z3shift-broken":
                "NotGirardError: 'z3shift-broken' has no Girard structure",
            "zinf-arctic":
                "MismatchError: theorem needs a finite base; 'zinf-arctic' is not",
            "zinf-broken":
                "MismatchError: theorem needs a finite base; 'zinf-broken' is not",
            "zinf-tropical":
                "MismatchError: theorem needs a finite base; 'zinf-tropical' is not",
        },
    },
    "random": {
        "ldq": {
            "bool":
                "ee7c008ea08ddfc4cce100c75ba462ba90337aede10c2d1e6c6b16de89212793",
            "bool-broken":
                "fa466f7739a3e7ff55bcc11ad9fec04ad794a3dbc07de1e0d4364bd8cbf861cd",
            "chain3":
                "558fab8ef410f275445aad302672be7a7a2b609b4c9028c95fb65ce6f11004eb",
            "chain3-broken":
                "92abe468390366ea3bc50911f99006c1ba761ba25ba7da0bec32d0a7a555789d",
            "diamond":
                "91b110fc46f479237c4c2986d703c33a11f67177e417a467ca39438631d04355",
            "diamond-broken":
                "9c4253d8be01c3787a7cb0ab570842563bde42c6c0a188d1826187672be4b407",
            "point":
                "11e887ab6768207661b1240c415b4bd4e1226c835c70df23659c4470113c08a4",
            "z2shift":
                "daeaa65686194ac59cf0b332c21dc79a801f8649d9be42144a80dc65bb5e5103",
            "z2shift-broken":
                "0dfe92d496673bda75e147884e557d6152b591cb18dbc9463c564284a81c80e6",
            "z3shift":
                "5aee309b47e5ce3289673e5319614a561dc6300a77e5f33f15cad2e64ce66b89",
            "z3shift-broken":
                "83de6eb76529b3cc8c11bbf11a87153ed79da515b36962782a25b12c91f4c806",
            "zinf-arctic":
                "96d1d65101afc80f93c2c8d94ef2e218fb6e03db1d5d8ca3905e42de2dc2809d",
            "zinf-broken":
                "146462828aaf1a5853158462ab428c08b01c1f791be1139ce3620b2f0b340f63",
            "zinf-tropical":
                "e9873bb2c918badc233b2b12ed84164ff3860a9c6ddccd0ed6e0bc74ac5e4e80",
        },
        "girard-qrel": {
            "bool":
                "73f71299aa97b4092a75300659e54e06039bcdfff057bb021b748dea79f0bbf3",
            "bool-broken":
                "1c8cbdfb8ebc62f5a7fc0c1bee0f124ad9983a5ad1c667c847a2922c700c0acc",
            "chain3":
                "7ac40305672019a0355983136553eb4e73eaad96cd334c2d0728b14b253cd476",
            "chain3-broken":
                "c27cfd50cf12bc02119160c4556dfc964bf611795b5fba3c88adbf70e3d6630c",
            "diamond":
                "c7216b50dbe2b3c4ef4dac972e6793845af250f68b8f256ae93be20068e6003c",
            "diamond-broken":
                "b2228e2a3b7aa986cefd7183b7f9b65b46fe44d4ac567853c01fc19f8ea13641",
            "point":
                "4ea6dd88b80e6a6b816b09367524aaaed3b72f74b100a77eba2836f4c73cf8c5",
            "z2shift":
                "94a9aac9042aa4bc07334b990deaa2287a74d83e2b70cbaa1e4751c31581c704",
            "z2shift-broken":
                "52be67cbb4e870c56bf9b1160565f343a5b1fcffb6335c10f26157ac95268f87",
            "z3shift":
                "cf7e02a19d221ab27c63f3009ec2544a668d747af3adbfeacf6497f4e3d32aa5",
            "z3shift-broken":
                "d9b4acb78592af5c5e8f5e75a707a3fae6c9e563db8db07aaa3979d325c094ba",
            "zinf-arctic":
                "9c8bcf79a572261433b826af5fef8db243470a47e70c70324acc45e871f489c1",
            "zinf-broken":
                "e9b5dd4119a9e57dcae031e51bdf08cda90381ff2c1412c39075e5ecde7c7949",
            "zinf-tropical":
                "48f625cf9fd265acbd3b81e75fecf02cd40dda405915e056949671ffaf967562",
        },
        "girard-qmod": {
            "bool":
                "9971352d09aa259d6cbd4690bbd6d1a2636349b86c484d5389201a00db62e3a3",
            "bool-broken":
                "e7e84589e5fee4388b7566d023ad248fb4455099b38bdebd1d9a19be1cdd3ee3",
            "chain3":
                "e8a46ceb68b84b2dca5861a5fd541b58c475bc5bae5aa45d4c38b9c5885cde46",
            "chain3-broken":
                "f6894d0d032ac542164ad749486cc082247bbaebecaff7f7fe0034dab219dab0",
            "diamond":
                "4cc82ffe28aa9d9130b16d722f4aa7f90a1fd4627a33801232b5ef093617f711",
            "diamond-broken":
                "373f4c44c2e66bd67013815652529150ae5e156a47d12969b9c135b13023060c",
            "point":
                "ef65476f423bea152d82bc2692fbd026782f9a9b1cb15129f22771319bc3056e",
            "z2shift":
                "ace90b6895dce1b085cd7f59c83cdeced97a094a22af3a3eb3cc061fbd6f3922",
            "z2shift-broken":
                "a08b652379b310fbbac2d0ff10cf101cf0bacce8387aa55f207b9b79e62662c5",
            "z3shift":
                "e1dce55bbbf13d3dd3a4e1449e0126f8dcc3e7fe5ca8948b4f2f6e1a00f522cf",
            "z3shift-broken":
                "ea75ffd6d49884ab8ef932581c9d546d506b622ecfb30a82cad36bd295933e42",
            "zinf-arctic":
                "MismatchError: theorem needs a finite base; 'zinf-arctic' is not",
            "zinf-broken":
                "MismatchError: theorem needs a finite base; 'zinf-broken' is not",
            "zinf-tropical":
                "MismatchError: theorem needs a finite base; 'zinf-tropical' is not",
        },
        "girard-monq": {
            "bool":
                "ae93add4ab9ea8f5920af5dc0a38ec26c6c9fcbd4146eed1b71f195544cc1010",
            "bool-broken":
                "eab470516e03f1d883ee5303a865f46e330583aa60cbf588746d5e6e00ebb4af",
            "chain3":
                "484c63f0740344ed0d202f9050cdb3f29b8c581e77cf48aed70ff89c2a70b34b",
            "chain3-broken":
                "50d34aa5d5b37a4e9e97cb3457cce8391f00b92703cd0bb3202267f26fc0f7e4",
            "diamond":
                "0e803225c7d1ee46ebf422e11bb3e6cf47087b4aec57b28afd8710d0addc2921",
            "diamond-broken":
                "4f7138d5c07a820c0a6f58a8378ee961181835fd0c850395f98da03983727495",
            "point":
                "d9088bf28b710ec53c63b3398c2ad7473e91742e8598c672baaa8b68717e0b66",
            "z2shift":
                "f7ff58cff32f8cef16b07692acc4fb3c0a13822f8a948a3d6f7cca902671620e",
            "z2shift-broken":
                "42c46cb77ebce5e60dd479890272459072c51c7bb374ef8ae8c1830546cfaa34",
            "z3shift":
                "ce8a5b0c86a6883e1f839a02b5dcca29c2944826285441af55d07588e59a9b8d",
            "z3shift-broken":
                "1af66a062c355e3d9f8ad655d95df8d61b6f645582ae0164f68005f2ddb3b6b2",
            "zinf-arctic":
                "MismatchError: theorem needs a finite base; 'zinf-arctic' is not",
            "zinf-broken":
                "MismatchError: theorem needs a finite base; 'zinf-broken' is not",
            "zinf-tropical":
                "MismatchError: theorem needs a finite base; 'zinf-tropical' is not",
        },
        "linear-monq": {
            "bool":
                "4c1832c6eae84b4d71aeb47ebadc5b98c0d6f76d309b971ef28d12938c98a10a",
            "bool-broken":
                "c547db36b0741461a1e4491f778734902111abd11edfea5f08a8d13175dd41b5",
            "chain3":
                "9f60c2d99e2f3ee5a711345a84a5e088954bb6a754b1adab58f5b14ca06a9238",
            "chain3-broken":
                "789ae804ae7277d146e5b14356d6a496ddb21d7c953e2e1539bfd835dd195470",
            "diamond":
                "f8d9eb91396845e86b3f8f16d6a435ac12df39f566c514c90900f809a18488b0",
            "diamond-broken":
                "bf33adf065958ab30e3dc58293f076b89bc180cb6bd320d8b76d1f53d986c89d",
            "point":
                "c9c127d727dba76eed385bf7ede0ab105138850b97d7d7b3d000ccd102fd3ef3",
            "z2shift":
                "2dc7756b6044e38634f9da0f5dbb85132ea2b4607bdfcf10a4dd277cc4734c85",
            "z2shift-broken":
                "3d26fbfe77ef4631d5441f0ffa6656e92ffcb9b4d775a0b7bc272d12372e7603",
            "z3shift":
                "9491647470005e8181f632bf5d365d074ce8673aec06d731f9af651a1b902712",
            "z3shift-broken":
                "726af6fb0ac02124b11d412fa20fe2a2eddfa206f38a79f5f55d00994108036a",
            "zinf-arctic":
                "MismatchError: theorem needs a finite base; 'zinf-arctic' is not",
            "zinf-broken":
                "MismatchError: theorem needs a finite base; 'zinf-broken' is not",
            "zinf-tropical":
                "MismatchError: theorem needs a finite base; 'zinf-tropical' is not",
        },
        "linear-qmod": {
            "bool":
                "b9094dee2121bb343313356c2e29b0d40bdda510040a11f2f12d0cb1de773ae5",
            "bool-broken":
                "889b70c2b5dc257dd628eeaa2de8c66fc53a01b8e8edc67f01ef3fac753df4c9",
            "chain3":
                "2c33e9aadb9b0ea960ac4176371c843fd22e359ee594308c4335fbce9a329c57",
            "chain3-broken":
                "abb0f5d4db25d7a3fccf1e62fd9bb39b6c3eb3f70ba3c163ecf741adde5ccea4",
            "diamond":
                "5d1fcaa78bb928bbbe7166c9119d0cebd0632284f8fa173147d0720497a81307",
            "diamond-broken":
                "38f404c6d355959ca539db6efb65ac9ba418ddf1cdff2faddd6363da4e899c2f",
            "point":
                "c916b3e7df31c3009c51d2d6997f267e5a33a1f9394c7a01f9d7a7207d4d71f6",
            "z2shift":
                "4c83428b3f3aa3914ed42607e3b698b1329915a2c9a94fdc65eb15ae9cd965d3",
            "z2shift-broken":
                "60640ee63cbdfd2e8f48fe04cc419594d987e010e9f232b5e07ba809a33a0540",
            "z3shift":
                "81bcde6a99bb653838d040f48ce93f8a134a1625a83cc0ef1c0e4efc0f2799f2",
            "z3shift-broken":
                "03b0c7ae72b3ead6152a29c57bb5f61aa1846684a6c2819a3f9b3694bd8c7a7f",
            "zinf-arctic":
                "MismatchError: theorem needs a finite base; 'zinf-arctic' is not",
            "zinf-broken":
                "MismatchError: theorem needs a finite base; 'zinf-broken' is not",
            "zinf-tropical":
                "MismatchError: theorem needs a finite base; 'zinf-tropical' is not",
        },
        "qrel-closed": {
            "bool":
                "01f135068ddd1f9c32dff8abb797d3fcaf80fa9e35e6e2d68e63c447822c9204",
            "bool-broken":
                "cc7d4e4c75b4bc115118c6805e86fb4afa8b00d4e05047582d5d3e3c59f7ae1c",
            "chain3":
                "d29e7cf72f5ea49745c84cb65e9f8ec6eda8f89a3ef9653b7decaf66c7ff5f79",
            "chain3-broken":
                "431e1758312289c7ff0e9f1404eb0a38e13ca5f62620b8417ba978dda8cb37a4",
            "diamond":
                "42c37b78eeabfa2c3d81cc683fd176b62d6b717b4f5db0ef0d936ddb0371f1de",
            "diamond-broken":
                "32ee512c2577d554bd7143459394a7bd19034b538f740c6859a34b610746f302",
            "point":
                "d3f4912ab77d9f234479a4ca2e5beab2f8e7de71997417d4325e3569ad44475a",
            "z2shift":
                "005f7520765bc104f9045a8cdc5406ef16561ed86652894d36f6f931df41bbc7",
            "z2shift-broken":
                "ff40346ec60f996af00b1df5c6e8d4e04f32656a55634a8c245fb84dbd0a40cc",
            "z3shift":
                "72848c2b4554beba1ab786ecc33bb242c9fea78584bf6e4473f32fa2e4811f9d",
            "z3shift-broken":
                "74297e534dfb93b98e7e33fbcbebbbb85709f63b0cd57392675c834d4b8c4519",
            "zinf-arctic":
                "4aee0b7e389b3728838e8118724cb79d2527ebc4c1ef4c27bf7d72e02110dcc0",
            "zinf-broken":
                "8f234b6ff47962829a229bd2b458a3797c67648098e25758f87b25447c8f51be",
            "zinf-tropical":
                "575c41887423242f9697d3abd3e951541c5105923f0ef3cb8041fb9ec29dbcb8",
        },
        "qmod-closed": {
            "bool":
                "be0f3255550f4bea2e3f9ef3562c1971aa4c16142124c3ecd1d145da38d789eb",
            "bool-broken":
                "NotGirardError: 'bool-broken' has no Girard structure",
            "chain3":
                "NotGirardError: 'chain3' has no Girard structure",
            "chain3-broken":
                "NotGirardError: 'chain3-broken' has no Girard structure",
            "diamond":
                "063e8ac0d93178a7a3dd1c3a2ab672895274fffcf0f703b04cf6fb4955a8b840",
            "diamond-broken":
                "NotGirardError: 'diamond-broken' has no Girard structure",
            "point":
                "bc86d932e715861e1d59d9866cddbe856a21daa56a62587293efb4ccc2f41f84",
            "z2shift":
                "1c6d95e646cd4e66bab3ffffdfb7edce34873f58f0587236474c8a781f0cb79e",
            "z2shift-broken":
                "33ddbfa7a84f4bc93a89b07750a6106b7e2238d840d0ac7501a1aa40680d7338",
            "z3shift":
                "1685a376252f0476caae80702b17bdee0e81b59ac2ffdbd032a14f9e5b43d8ea",
            "z3shift-broken":
                "NotGirardError: 'z3shift-broken' has no Girard structure",
            "zinf-arctic":
                "MismatchError: theorem needs a finite base; 'zinf-arctic' is not",
            "zinf-broken":
                "MismatchError: theorem needs a finite base; 'zinf-broken' is not",
            "zinf-tropical":
                "MismatchError: theorem needs a finite base; 'zinf-tropical' is not",
        },
    },
}


def outcome(sampler: str, theorem: str, name: str) -> str:
    """The report digest, or the refusal as ``Class: message``."""
    try:
        rep = run_theorem(theorem, name, SAMPLERS[sampler])
    except StructureError as exc:
        return f"{type(exc).__name__}: {exc}"
    h = hashlib.sha256(rep.json_bytes())
    h.update(rep.to_text().encode("utf-8"))
    return h.hexdigest()


def test_every_theorem_and_entry_is_pinned():
    for sampler in SAMPLERS:
        assert sorted(EXPECTED[sampler]) == sorted(THEOREMS)
        for theorem in THEOREMS:
            assert sorted(EXPECTED[sampler][theorem]) == sorted(catalog())


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_theorem_outputs_unchanged(sampler, theorem):
    got = {name: outcome(sampler, theorem, name) for name in sorted(catalog())}
    assert got == EXPECTED[sampler][theorem]


if __name__ == "__main__":
    print("EXPECTED = {")
    for sampler_name in SAMPLERS:
        print(f"    {json.dumps(sampler_name)}: {{")
        for theorem_id in THEOREMS:
            print(f"        {json.dumps(theorem_id)}: {{")
            for entry_name in sorted(catalog()):
                out = outcome(sampler_name, theorem_id, entry_name)
                print(f"            {json.dumps(entry_name)}:\n"
                      f"                {json.dumps(out)},")
            print("        },")
        print("    },")
    print("}")
